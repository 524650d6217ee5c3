#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/overlap_compiler.h"
#include "difftest/difftest.h"
#include "difftest/minimizer.h"
#include "hlo/parser.h"
#include "interp/evaluator.h"
#include "test_util.h"

namespace overlap {
namespace difftest {
namespace {

// ---------------------------------------------------------------------------
// Tier-1 sweep: 70 seeded cases x all four decomposition variants. The
// stratified generator guarantees every 10 consecutive indices cover all
// five site cases under both shard-extent parities.
// ---------------------------------------------------------------------------

TEST(DiffTest, Tier1SweepHasZeroMismatches)
{
    DiffTestConfig config;
    config.num_cases = 70;
    config.seed = 42;
    auto summary = RunDiffTest(config);
    ASSERT_TRUE(summary.ok()) << summary.status().message();
    EXPECT_EQ(summary->cases_run, 70);
    EXPECT_EQ(summary->variants_run,
              70 * static_cast<int64_t>(AllDecomposeVariants().size()));
    EXPECT_EQ(summary->mismatches, 0) << summary->ToString();
    // Coverage: all five site cases, both parities.
    for (size_t c = 0; c < static_cast<size_t>(kNumSiteCases); ++c) {
        EXPECT_EQ(summary->cases_by_site[c], 14)
            << "site case " << c << " under-covered";
    }
    EXPECT_EQ(summary->odd_extent_cases, 35);
    EXPECT_EQ(summary->even_extent_cases, 35);
}

// ---------------------------------------------------------------------------
// Equivalence table: every §5.1 and §18 site shape on rings of 2, 3, 4
// and 8 (plus torus subgroup rings) with an even shard extent, and the
// four §5.1 shapes with an odd shard extent on rings of 2, 4 and 5 (on
// an even ring the odd extent forces the unidirectional fallback; an odd
// ring has no §5.4.2 structure at all). Every row runs through the
// oracle under all four variants and through the full compiler.
// ---------------------------------------------------------------------------

struct TableShape {
    SiteCase site_case;
    int64_t side;
    bool torus;  ///< run on the second axis of a 2 x N mesh
};

std::vector<SiteSpec>
EquivalenceTable()
{
    const TableShape even_shapes[] = {
        {SiteCase::kAllGatherFree, 0, false},
        {SiteCase::kAllGatherFree, 1, false},
        {SiteCase::kAllGatherContracting, 0, false},
        {SiteCase::kAllGatherContracting, 1, false},
        {SiteCase::kAllGatherBatch, 0, false},
        {SiteCase::kReduceScatter, 0, false},
        {SiteCase::kReduceScatter, 1, false},
        {SiteCase::kAllGatherFree, 0, true},
        {SiteCase::kReduceScatter, 1, true},
        {SiteCase::kAllToAll, 0, false},
        {SiteCase::kAllToAll, 1, false},
        {SiteCase::kAllToAll, 0, true},
    };
    const TableShape odd_shapes[] = {
        {SiteCase::kAllGatherFree, 0, false},
        {SiteCase::kAllGatherContracting, 0, false},
        {SiteCase::kAllGatherBatch, 0, false},
        {SiteCase::kReduceScatter, 0, false},
    };
    std::vector<SiteSpec> table;
    auto add = [&table](const TableShape& shape, int64_t ring,
                        int64_t extent) {
        SiteSpec spec;
        spec.site_case = shape.site_case;
        spec.side = shape.side;
        spec.mesh_dims = shape.torus ? std::vector<int64_t>{2, ring}
                                     : std::vector<int64_t>{ring};
        spec.axis = shape.torus ? 1 : 0;
        spec.shard_extent = extent;
        spec.contract = shape.site_case == SiteCase::kReduceScatter ? 3 : 4;
        spec.data_seed = table.size();
        table.push_back(spec);
    };
    for (int64_t ring : {2, 3, 4, 8}) {
        for (const TableShape& shape : even_shapes) add(shape, ring, 2);
    }
    for (int64_t ring : {2, 4, 5}) {
        for (const TableShape& shape : odd_shapes) add(shape, ring, 3);
    }
    return table;
}

TEST(DiffTest, EquivalenceTableMatchesAndCompilesUnderEveryVariant)
{
    const std::vector<SiteSpec> table = EquivalenceTable();
    ASSERT_EQ(table.size(), 60u);
    const std::vector<DecomposeVariant>& variants = AllDecomposeVariants();
    for (const SiteSpec& spec : table) {
        SCOPED_TRACE(spec.ToString());
        EXPECT_LE(EquivalenceTolerance(spec.dtype, spec.reduction_extent()),
                  1e-3);
        auto comparisons = RunCaseVariants(spec, variants,
                                           /*inject_shard_id_bug=*/false);
        ASSERT_TRUE(comparisons.ok()) << comparisons.status().message();
        ASSERT_EQ(comparisons->size(), variants.size());
        for (size_t v = 0; v < variants.size(); ++v) {
            EXPECT_TRUE((*comparisons)[v].equal)
                << variants[v].name << ": " << (*comparisons)[v].ToString();
            // The full pipeline, bottom-up scheduler included, must
            // decompose the one site without a guarded-pass incident.
            auto module = BuildSiteModule(spec);
            ASSERT_TRUE(module.ok()) << module.status().message();
            CompilerOptions options;
            options.decompose.use_cost_model = false;
            variants[v].ApplyTo(&options.decompose);
            auto report = OverlapCompiler(options).Compile(module->get());
            ASSERT_TRUE(report.ok()) << report.status().message();
            EXPECT_EQ(report->decompose.total_decomposed(), 1)
                << variants[v].name;
            EXPECT_TRUE(report->pass_diagnostics.empty())
                << variants[v].name << ": "
                << report->pass_diagnostics.front().ToString();
        }
    }
}

// ---------------------------------------------------------------------------
// §18 equivalence wall: a pinned-case sweep mass-produces AllToAll
// sites (GenerateSiteSpecForCase keeps the stratified stream, only the
// case is fixed) and demands blocking/decomposed agreement under every
// variant. check_sanitize.sh runs this at >= 512 sites; the unit test
// keeps a fast representative slice.
// ---------------------------------------------------------------------------

TEST(DiffTest, AllToAllOnlySweepHasZeroMismatches)
{
    DiffTestConfig config;
    config.num_cases = 32;
    config.seed = 42;
    config.only_case = SiteCase::kAllToAll;
    auto summary = RunDiffTest(config);
    ASSERT_TRUE(summary.ok()) << summary.status().message();
    EXPECT_EQ(summary->cases_run, 32);
    EXPECT_EQ(summary->mismatches, 0) << summary->ToString();
    EXPECT_EQ(summary->cases_by_site[4], 32);
    EXPECT_GT(summary->odd_extent_cases, 0);
    EXPECT_GT(summary->even_extent_cases, 0);
}

// The §18 pipelined form (moe_sweep's pipelined arm): with AllToAll
// decomposition off, the async pass splits the exchange into a Start/Done
// pair, and the compiled module must evaluate to the blocking reference's
// values bit for bit on every device.
TEST(DiffTest, AsyncAllToAllMatchesTheBlockingReferenceBitForBit)
{
    int64_t rows = 0;
    for (const SiteSpec& spec : EquivalenceTable()) {
        if (spec.site_case != SiteCase::kAllToAll) continue;
        SCOPED_TRACE(spec.ToString());
        auto scenario = BuildSiteScenario(spec);
        ASSERT_TRUE(scenario.ok()) << scenario.status().message();
        auto pipelined = BuildSiteModule(spec);
        ASSERT_TRUE(pipelined.ok()) << pipelined.status().message();
        CompilerOptions options;
        options.decompose.all_to_all = false;
        options.async_all_to_all = true;
        auto report = OverlapCompiler(options).Compile(pipelined->get());
        ASSERT_TRUE(report.ok()) << report.status().message();
        EXPECT_EQ(report->async_all_to_alls, 1);
        EXPECT_TRUE(report->pass_diagnostics.empty());

        auto outputs = SpmdEvaluator(spec.mesh()).EvaluateBatch(
            {scenario->module->entry(), (*pipelined)->entry()},
            scenario->params);
        ASSERT_TRUE(outputs.ok()) << outputs.status().message();
        const std::vector<Tensor>& blocking = (*outputs)[0];
        const std::vector<Tensor>& async = (*outputs)[1];
        ASSERT_EQ(blocking.size(), async.size());
        for (size_t d = 0; d < blocking.size(); ++d) {
            EXPECT_TRUE(testing_util::BitEqual(blocking[d], async[d]))
                << "device " << d;
        }
        ++rows;
    }
    EXPECT_EQ(rows, 12);
}

TEST(DiffTest, AllToAllSpecLineRoundTrips)
{
    for (int64_t i = 0; i < 16; ++i) {
        SiteSpec spec = GenerateSiteSpecForCase(99, i, SiteCase::kAllToAll);
        EXPECT_EQ(spec.site_case, SiteCase::kAllToAll);
        auto parsed = SiteSpec::Parse(spec.ToString());
        ASSERT_TRUE(parsed.ok()) << parsed.status().message();
        EXPECT_EQ(parsed->ToString(), spec.ToString());
    }
}

TEST(DiffTest, SweepIsDeterministicPerSeed)
{
    SiteSpec a = GenerateSiteSpec(7, 13);
    SiteSpec b = GenerateSiteSpec(7, 13);
    EXPECT_EQ(a.ToString(), b.ToString());
    SiteSpec c = GenerateSiteSpec(8, 13);
    EXPECT_NE(a.ToString(), c.ToString());
}

TEST(DiffTest, SpecLineRoundTrips)
{
    for (int64_t i = 0; i < 32; ++i) {
        SiteSpec spec = GenerateSiteSpec(99, i);
        auto parsed = SiteSpec::Parse(spec.ToString());
        ASSERT_TRUE(parsed.ok()) << parsed.status().message();
        EXPECT_EQ(parsed->ToString(), spec.ToString());
    }
}

TEST(DiffTest, SpecParseRejectsGarbage)
{
    EXPECT_FALSE(SiteSpec::Parse("mesh=4 axis=0").ok());  // no case
    EXPECT_FALSE(SiteSpec::Parse("case=nope mesh=4").ok());
    EXPECT_FALSE(SiteSpec::Parse("case=rs mesh=2x2x2").ok());
    EXPECT_FALSE(SiteSpec::Parse("case=rs mesh=4 axis=1").ok());
    EXPECT_FALSE(SiteSpec::Parse("case=rs bogus").ok());
}

TEST(DiffTest, ReproLineRoundTrips)
{
    SiteSpec spec = GenerateSiteSpec(3, 5);
    std::string line =
        spec.ToString() + " variant=bidi_unroll inject=1";
    auto repro = ParseReproLine(line);
    ASSERT_TRUE(repro.ok()) << repro.status().message();
    EXPECT_EQ(repro->spec.ToString(), spec.ToString());
    EXPECT_STREQ(repro->variant.name, "bidi_unroll");
    EXPECT_TRUE(repro->inject_shard_id_bug);
    EXPECT_FALSE(ParseReproLine(spec.ToString()).ok());  // no variant
    // No forced-unidirectional variant exists: with bidirectional off,
    // uni / uni_unroll already emit that lowering.
    EXPECT_FALSE(
        ParseReproLine(spec.ToString() + " variant=forced_uni inject=0")
            .ok());
}

TEST(DiffTest, VariantsAreDirectionTimesUnroll)
{
    std::vector<std::string> names;
    for (const DecomposeVariant& v : AllDecomposeVariants()) {
        names.push_back(v.name);
    }
    EXPECT_EQ(names, (std::vector<std::string>{"uni", "uni_unroll", "bidi",
                                               "bidi_unroll"}));
}

// ---------------------------------------------------------------------------
// The minimizer, pointed at a deliberately injected decompose bug
// (DecomposeOptions::test_shard_id_bug), must catch the mismatch and
// shrink it to a <= 8-instruction module the parser round-trips.
// ---------------------------------------------------------------------------

TEST(DiffTest, InjectedBugIsCaughtAndMinimized)
{
    DiffTestConfig config;
    config.num_cases = 8;
    config.seed = 42;
    config.inject_shard_id_bug = true;
    auto summary = RunDiffTest(config);
    ASSERT_TRUE(summary.ok()) << summary.status().message();
    ASSERT_GT(summary->mismatches, 0)
        << "injected shard-id bug was not detected";
    ASSERT_FALSE(summary->failures.empty());

    const CaseFailure& failure = summary->failures.front();
    auto variant = FindVariant(failure.variant);
    ASSERT_TRUE(variant.ok());
    auto minimized = MinimizeFailure(failure.spec, variant.value(),
                                     /*inject_shard_id_bug=*/true);
    ASSERT_TRUE(minimized.ok()) << minimized.status().message();

    // The shrunken module is tiny and still fails.
    EXPECT_LE(minimized->module_instructions, 8)
        << minimized->module_text;
    auto check = RunSingleCase(minimized->spec, minimized->variant,
                               /*inject_shard_id_bug=*/true);
    ASSERT_TRUE(check.ok());
    EXPECT_FALSE(check->equal);

    // ...and parses back to the identical text.
    auto reparsed = ParseHloModule(minimized->module_text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
    EXPECT_EQ((*reparsed)->ToString(), minimized->module_text);

    // The one-line repro re-runs through the repro-line pipeline.
    auto repro = ParseReproLine(minimized->repro_line);
    ASSERT_TRUE(repro.ok());
    auto rerun = RunSingleCase(repro->spec, repro->variant,
                               repro->inject_shard_id_bug);
    ASSERT_TRUE(rerun.ok());
    EXPECT_FALSE(rerun->equal);
}

TEST(DiffTest, MinimizerRejectsPassingCase)
{
    SiteSpec spec = GenerateSiteSpec(42, 0);
    auto result = MinimizeFailure(spec, AllDecomposeVariants().front(),
                                  /*inject_shard_id_bug=*/false);
    EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace difftest
}  // namespace overlap
