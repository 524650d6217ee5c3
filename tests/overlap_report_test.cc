/**
 * @file
 * Invariants of the overlap-efficiency report (DESIGN.md §13) over
 * difftest-generated sites: interval accounting must close exactly
 * (hidden + exposed == total), fractions must be probabilities, and
 * every gate verdict must be reproducible from the cost terms the
 * decision logged (GateCost::Benefit).
 *
 * The gate-outcome tests (DESIGN.md §15, ctest label `calibration`)
 * check what the §5.5 gate's verdicts are worth in simulation: over
 * the overlap-report site space every decomposed site speeds up and
 * every rejection is justified when forced open, the hidden-fraction
 * prediction error stays under the 0.15 mean gate, and the GPT_32B
 * model report is never optimistic beyond that gate.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "core/overlap_report.h"
#include "core/pod_runner.h"
#include "difftest/difftest.h"
#include "models/model_config.h"
#include "sim/engine.h"

namespace overlap {
namespace {

using difftest::BuildSiteModule;
using difftest::GenerateSiteSpec;
using difftest::OverlapReportSiteSpace;
using difftest::SimulateSite;
using difftest::SiteSimulation;
using difftest::SiteSpec;

/// Gate tolerances (DESIGN.md §15): speedups within the gate's own
/// decision margin are noise, and the mean |hidden-fraction error|
/// gate of bench/overlap_report --check.
constexpr double kSpeedupTolerance = kGateDecisionMargin;
constexpr double kMaxMeanHiddenFractionError = 0.15;

/** Compiles and trace-simulates one difftest site, plus its blocking
 * baseline for the actual speedup. */
SiteSimulation
RunSite(const SiteSpec& spec, bool use_cost_model)
{
    CompilerOptions options;
    options.decompose.use_cost_model = use_cost_model;
    auto site = SimulateSite(spec, options);
    EXPECT_TRUE(site.ok()) << site.status().ToString();
    return std::move(site).value();
}

/** The overlap report of a site run. */
OverlapReport
ReportOf(const SiteSimulation& run)
{
    auto report = BuildOverlapReport(run.compile, run.sim);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report).value();
}

void
CheckAccounting(const SiteOverlapReport& site, const std::string& where)
{
    constexpr double kTol = 1e-12;
    EXPECT_NEAR(site.sim_hidden_comm_seconds +
                    site.sim_exposed_comm_seconds,
                site.sim_total_comm_seconds, kTol)
        << where;
    EXPECT_GE(site.sim_hidden_comm_seconds, -kTol) << where;
    EXPECT_GE(site.sim_exposed_comm_seconds, -kTol) << where;
    EXPECT_GE(site.sim_hidden_fraction, 0.0) << where;
    EXPECT_LE(site.sim_hidden_fraction, 1.0) << where;
    EXPECT_GE(site.PredictedHiddenFraction(), 0.0) << where;
    EXPECT_LE(site.PredictedHiddenFraction(), 1.0) << where;
    EXPECT_GT(site.PredictedSpeedup(), 0.0) << where;
}

TEST(OverlapReportTest, RequiresATracedSimulation)
{
    SiteSpec spec = GenerateSiteSpec(/*seed=*/11, 0);
    auto module = BuildSiteModule(spec);
    ASSERT_TRUE(module.ok());
    OverlapCompiler compiler((CompilerOptions()));
    auto compile = compiler.Compile(module->get());
    ASSERT_TRUE(compile.ok());
    PodSimulator simulator(spec.mesh(), HardwareSpec());
    auto sim = simulator.Run(**module);  // no trace collected
    ASSERT_TRUE(sim.ok());
    auto report = BuildOverlapReport(compile.value(), sim.value());
    EXPECT_FALSE(report.ok());
}

TEST(OverlapReportTest, IntervalAccountingClosesOnGeneratedSites)
{
    // Forced decomposition exercises the loop-group attribution path on
    // all four §5.1 cases and both shard-extent parities.
    for (int64_t i = 0; i < 8; ++i) {
        SiteSpec spec = GenerateSiteSpec(/*seed=*/5, i);
        SiteSimulation run = RunSite(spec, /*use_cost_model=*/false);
        auto report = BuildOverlapReport(run.compile, run.sim);
        ASSERT_TRUE(report.ok()) << report.status().ToString();

        SiteOverlapReport rollup;
        rollup.sim_total_comm_seconds = report->total_comm_seconds;
        rollup.sim_exposed_comm_seconds = report->exposed_comm_seconds;
        rollup.sim_hidden_comm_seconds = report->hidden_comm_seconds;
        rollup.sim_hidden_fraction = report->hidden_fraction;
        CheckAccounting(rollup, "rollup " + spec.ToString());

        ASSERT_FALSE(report->sites.empty()) << spec.ToString();
        for (const SiteOverlapReport& site : report->sites) {
            CheckAccounting(site,
                            site.collective + " " + spec.ToString());
            EXPECT_TRUE(site.decomposed) << spec.ToString();
            EXPECT_GE(site.loop_group, 0) << spec.ToString();
            // The loop-group join found the site's events: a decomposed
            // site always puts transfers on the wire.
            EXPECT_GT(site.sim_total_comm_seconds, 0.0)
                << site.collective << " " << spec.ToString();
            // Site-local communication is part of the whole step's.
            EXPECT_LE(site.sim_total_comm_seconds,
                      report->total_comm_seconds + 1e-12)
                << spec.ToString();
        }
        // Forced decomposition of tiny sites is legitimately
        // unprofitable; the step-level prediction only has to stay a
        // positive ratio.
        EXPECT_GT(report->predicted_speedup, 0.0) << spec.ToString();
    }
}

TEST(OverlapReportTest, GateVerdictsMatchLoggedCost)
{
    // Under the real cost model, every decision's verdict must be
    // derivable from the §5.5 inputs it logged: decomposed sites carry
    // a non-negative recomputed benefit, rejected sites a negative one.
    int64_t decisions_seen = 0;
    for (int64_t i = 0; i < 8; ++i) {
        SiteSpec spec = GenerateSiteSpec(/*seed=*/5, i);
        SiteSimulation run = RunSite(spec, /*use_cost_model=*/true);
        auto report = BuildOverlapReport(run.compile, run.sim);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        ASSERT_EQ(report->sites.size(),
                  run.compile.decompose.decisions.size());
        for (size_t s = 0; s < report->sites.size(); ++s) {
            const SiteOverlapReport& site = report->sites[s];
            const SiteDecision& decision =
                run.compile.decompose.decisions[s];
            ++decisions_seen;
            CheckAccounting(site,
                            site.collective + " " + spec.ToString());
            EXPECT_EQ(site.decomposed, site.reason == "decomposed")
                << spec.ToString();
            const double benefit = decision.cost.Benefit();
            if (decision.reason == "decomposed") {
                EXPECT_GE(benefit, 0.0)
                    << site.collective << " " << spec.ToString();
            } else if (decision.reason == "rejected_by_cost_model") {
                EXPECT_LT(benefit, 0.0)
                    << site.collective << " " << spec.ToString();
            }
            // The report kept the decision's terms verbatim.
            EXPECT_EQ(site.cost.comp_t, decision.cost.comp_t);
            EXPECT_EQ(site.cost.comm_t, decision.cost.comm_t);
            EXPECT_EQ(site.cost.comm_t_ring, decision.cost.comm_t_ring);
            EXPECT_EQ(site.cost.extra_t, decision.cost.extra_t);
            EXPECT_EQ(site.cost.margin, decision.cost.margin);
        }
    }
    EXPECT_GT(decisions_seen, 0);
}

TEST(OverlapReportTest, JsonRoundTripsTheAccountingInvariant)
{
    SiteSpec spec = GenerateSiteSpec(/*seed=*/5, 0);
    SiteSimulation run = RunSite(spec, /*use_cost_model=*/false);
    auto report = BuildOverlapReport(run.compile, run.sim);
    ASSERT_TRUE(report.ok());
    std::string json = report->ToJson();
    // The serialization keeps enough digits that the invariant is
    // checkable by a consumer of the JSON, not only in memory.
    auto field = [&json](const std::string& key) {
        size_t pos = json.find("\"" + key + "\":");
        EXPECT_NE(pos, std::string::npos) << key;
        return std::strtod(json.c_str() + pos + key.size() + 3, nullptr);
    };
    const double total = field("total_comm_seconds");
    const double exposed = field("exposed_comm_seconds");
    const double hidden = field("hidden_comm_seconds");
    EXPECT_GT(total, 0.0);
    EXPECT_NEAR(hidden + exposed, total, 1e-12 + 1e-9 * total);
}

TEST(OverlapReportTest, DecomposedVerdictsSpeedUpRejectionsJustified)
{
    for (const SiteSpec& spec : OverlapReportSiteSpace()) {
        SiteSimulation gated = RunSite(spec, /*use_cost_model=*/true);
        OverlapReport report = ReportOf(gated);
        ASSERT_FALSE(report.sites.empty())
            << spec.ToString() << ": no matched site";
        for (const SiteOverlapReport& site : report.sites) {
            if (site.decomposed) {
                EXPECT_GE(gated.ActualSpeedup(), 1.0 - kSpeedupTolerance)
                    << spec.ToString()
                    << ": gate accepted a site that simulates a slowdown";
            } else {
                // The gate said no: forcing it open must not reveal a
                // speedup it should have taken.
                SiteSimulation forced =
                    RunSite(spec, /*use_cost_model=*/false);
                EXPECT_LT(forced.ActualSpeedup(), 1.0 + kSpeedupTolerance)
                    << spec.ToString()
                    << ": gate rejected a site that simulates a speedup";
            }
        }
    }
}

TEST(OverlapReportTest, HiddenFractionErrorUnderGate)
{
    double error_sum = 0.0;
    int64_t error_count = 0;
    for (const SiteSpec& spec : OverlapReportSiteSpace()) {
        OverlapReport graded =
            ReportOf(RunSite(spec, /*use_cost_model=*/true));
        // Rejected sites are graded against the loop they would have
        // emitted, same as bench/overlap_report --check.
        if (graded.error_sites == 0) {
            graded = ReportOf(RunSite(spec, /*use_cost_model=*/false));
        }
        ASSERT_GT(graded.error_sites, 0)
            << spec.ToString() << ": no graded prediction";
        error_sum += graded.mean_abs_hidden_fraction_error;
        ++error_count;
        for (const SiteOverlapReport& site : graded.sites) {
            if (!site.has_prediction_error) continue;
            EXPECT_GE(site.PredictedHiddenFraction(), 0.0);
            EXPECT_LE(site.PredictedHiddenFraction(), 1.0);
            EXPECT_LE(std::fabs(site.hidden_fraction_error), 1.0);
        }
    }
    ASSERT_GT(error_count, 0);
    EXPECT_LE(error_sum / static_cast<double>(error_count),
              kMaxMeanHiddenFractionError);
}

TEST(OverlapReportTest, Gpt32BModelReportHoldsTheGate)
{
    const ModelConfig* model = FindModel("GPT_32B");
    ASSERT_NE(model, nullptr);
    auto analysis = AnalyzeModelOverlap(*model, CompilerOptions());
    ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();

    const OverlapReport& report = analysis->report;
    EXPECT_GT(report.decomposed_sites(), 0)
        << "the gate decomposes nothing in GPT_32B";
    EXPECT_GE(report.actual_speedup, 1.0 - kSpeedupTolerance)
        << "decomposition made the GPT_32B layer slower";
    EXPECT_GT(report.error_sites, 0);

    // Inside a whole layer a loop's flights also hide under the
    // *surrounding* compute, so the isolated-loop prediction is
    // expected to be conservative there (signed error < 0). What the
    // gate must never let back in is the old model's optimism: grade
    // only the optimistic side of each site's error.
    double optimism_sum = 0.0;
    int64_t graded = 0;
    for (const SiteOverlapReport& site : report.sites) {
        if (!site.has_prediction_error) continue;
        optimism_sum += std::max(0.0, site.hidden_fraction_error);
        ++graded;
    }
    ASSERT_GT(graded, 0);
    EXPECT_LE(optimism_sum / static_cast<double>(graded),
              kMaxMeanHiddenFractionError);
}

}  // namespace
}  // namespace overlap
