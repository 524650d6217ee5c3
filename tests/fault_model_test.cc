/**
 * @file
 * Fault-injection layer: determinism of the seeded fault model, exact
 * bit-identity of the fault-free path, the asymmetry between decomposed
 * rings (serialized on a degraded link) and blocking collectives
 * (assumed to route around it), the variance-aware §5.5 gate, and the
 * seeded trial statistics.
 */
#include <gtest/gtest.h>

#include <memory>

#include "core/overlap_compiler.h"
#include "core/pod_runner.h"
#include "hlo/builder.h"
#include "hlo/module.h"
#include "models/fault_presets.h"
#include "sim/engine.h"
#include "sim/fault_model.h"

namespace overlap {
namespace {

/** The CostModelAcceptsLargeSites module: AllGather feeding an einsum. */
std::unique_ptr<HloModule>
BuildLargeAllGatherModule(const Mesh& mesh)
{
    auto module = std::make_unique<HloModule>("m");
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {2048, 4096}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {4096, 8192}));
    auto* ag = b.AllGather(p, 0, mesh.Groups(0));
    comp->set_root(b.Einsum(ag, w, "bf,fh->bh"));
    return module;
}

TEST(FaultModelTest, DefaultModelIsExactlyFaultFree)
{
    FaultModel fault;
    EXPECT_TRUE(fault.fault_free());
    Mesh mesh(8);
    for (int64_t d = 0; d < 8; ++d) {
        EXPECT_EQ(fault.ChipComputeFactor(d), 1.0);
        EXPECT_EQ(fault.LinkBandwidthFactor(d, (d + 1) % 8), 1.0);
        EXPECT_EQ(fault.LinkLatencyFactor(d, (d + 1) % 8), 1.0);
        EXPECT_EQ(fault.TrialChipFactor(d, 5), 1.0);
    }
    EXPECT_EQ(fault.SlowestLinkFactor(mesh, 0, 0), 1.0);
    EXPECT_EQ(fault.SlowestLinkFactor(mesh, 0, 1), 1.0);
    EXPECT_EQ(fault.WorstLinkLatencyFactor(mesh, 0, 0), 1.0);
    EXPECT_EQ(fault.SlowestChipFactor(8, 3), 1.0);
    EXPECT_EQ(fault.TransferFailures(17, 4), 0);
}

TEST(FaultModelTest, SameSeedReproducesSameFaults)
{
    FaultSpec spec;
    spec.seed = 42;
    spec.link_degrade_probability = 0.3;
    spec.straggler_probability = 0.3;
    spec.link_jitter = 0.2;
    spec.compute_jitter = 0.2;
    spec.transient_failure_probability = 0.2;
    FaultModel a(spec), b(spec);
    EXPECT_FALSE(a.fault_free());
    for (int64_t d = 0; d < 16; ++d) {
        EXPECT_EQ(a.ChipComputeFactor(d), b.ChipComputeFactor(d));
        EXPECT_EQ(a.LinkBandwidthFactor(d, d + 1),
                  b.LinkBandwidthFactor(d, d + 1));
        EXPECT_EQ(a.TrialLinkFactor(d, d + 1, 3),
                  b.TrialLinkFactor(d, d + 1, 3));
        EXPECT_EQ(a.TransferFailures(d, 2), b.TransferFailures(d, 2));
    }
    // A different seed draws a different pod.
    spec.seed = 43;
    FaultModel c(spec);
    bool any_difference = false;
    for (int64_t d = 0; d < 64 && !any_difference; ++d) {
        any_difference =
            a.LinkBandwidthFactor(d, d + 1) !=
                c.LinkBandwidthFactor(d, d + 1) ||
            a.ChipComputeFactor(d) != c.ChipComputeFactor(d) ||
            a.TransferFailures(d, 0) != c.TransferFailures(d, 0);
    }
    EXPECT_TRUE(any_difference);
}

TEST(FaultModelTest, TrialsResampleOnlyTransientNoise)
{
    FaultSpec spec;
    spec.seed = 9;
    spec.link_degrade_probability = 0.5;
    spec.link_jitter = 0.3;
    FaultModel fault(spec);
    // Persistent factor is trial-independent; the trial factor differs
    // across trials (jitter) but never exceeds the persistent factor.
    double persistent = fault.LinkBandwidthFactor(2, 3);
    bool trials_differ = false;
    double previous = -1.0;
    for (int64_t trial = 0; trial < 8; ++trial) {
        double f = fault.TrialLinkFactor(2, 3, trial);
        EXPECT_LE(f, persistent);
        EXPECT_GT(f, 0.0);
        if (previous >= 0.0 && f != previous) trials_differ = true;
        previous = f;
    }
    EXPECT_TRUE(trials_differ);
}

TEST(FaultModelTest, ExplicitFaultsOverrideAndAggregate)
{
    Mesh mesh(8);
    FaultSpec spec;
    LinkFault link;
    link.src = 0;
    link.dst = mesh.RingNeighbor(0, 0, -1);  // engine direction 0
    link.bandwidth_factor = 0.25;
    link.latency_factor = 4.0;
    spec.link_faults.push_back(link);
    ChipFault chip;
    chip.chip = 3;
    chip.compute_factor = 0.5;
    spec.chip_faults.push_back(chip);
    FaultModel fault(spec);
    EXPECT_FALSE(fault.fault_free());
    EXPECT_EQ(fault.LinkBandwidthFactor(link.src, link.dst), 0.25);
    EXPECT_EQ(fault.LinkLatencyFactor(link.src, link.dst), 4.0);
    EXPECT_EQ(fault.LinkBandwidthFactor(1, 0), 1.0);
    // Ring lockstep: the slowest link of the direction is the channel rate.
    EXPECT_EQ(fault.SlowestLinkFactor(mesh, 0, 0), 0.25);
    EXPECT_EQ(fault.SlowestLinkFactor(mesh, 0, 1), 1.0);
    EXPECT_EQ(fault.WorstLinkLatencyFactor(mesh, 0, 0), 4.0);
    EXPECT_EQ(fault.SlowestChipFactor(8), 0.5);
    EXPECT_EQ(fault.SlowestChipFactor(3), 1.0);  // chip 3 outside pod
}

TEST(FaultModelTest, FaultFreeSimulationIsBitIdentical)
{
    Mesh mesh(8);
    auto module = BuildLargeAllGatherModule(mesh);
    OverlapCompiler compiler(CompilerOptions{});
    ASSERT_TRUE(compiler.Compile(module.get()).ok());

    HardwareSpec spec;
    PodSimulator plain(mesh, spec);
    PodSimulator with_default_fault(mesh, spec, FaultModel(FaultSpec()));
    auto a = plain.Run(*module);
    auto b = with_default_fault.Run(*module);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // Exact equality, not near: the fault-free path must not perturb a
    // single bit of the arithmetic.
    EXPECT_EQ(a->step_seconds, b->step_seconds);
    EXPECT_EQ(a->compute_seconds, b->compute_seconds);
    EXPECT_EQ(a->exposed_comm_seconds, b->exposed_comm_seconds);
    EXPECT_EQ(a->transferred_bytes, b->transferred_bytes);
    EXPECT_EQ(b->retry.retries, 0);
    EXPECT_EQ(b->straggler_stall_seconds, 0.0);
}

TEST(FaultModelTest, DegradedLinkLengthensDecomposedButNotBlocking)
{
    Mesh mesh(8);
    HardwareSpec spec;
    FaultModel degraded(SingleDegradedLink(mesh, 0, 0.1).spec);

    // Decomposed program: ring permutes serialize on the slow link.
    auto decomposed = BuildLargeAllGatherModule(mesh);
    CompilerOptions force;
    force.decompose.use_cost_model = false;
    ASSERT_TRUE(OverlapCompiler(force).Compile(decomposed.get()).ok());
    auto healthy_run = PodSimulator(mesh, spec).Run(*decomposed);
    auto degraded_run =
        PodSimulator(mesh, spec, degraded).Run(*decomposed);
    ASSERT_TRUE(healthy_run.ok());
    ASSERT_TRUE(degraded_run.ok());
    EXPECT_GT(degraded_run->step_seconds, healthy_run->step_seconds);

    // Blocking baseline: the runtime collective routes around the link.
    auto blocking = BuildLargeAllGatherModule(mesh);
    ASSERT_TRUE(OverlapCompiler(CompilerOptions::Baseline())
                    .Compile(blocking.get())
                    .ok());
    auto blocking_healthy = PodSimulator(mesh, spec).Run(*blocking);
    auto blocking_degraded =
        PodSimulator(mesh, spec, degraded).Run(*blocking);
    ASSERT_TRUE(blocking_healthy.ok());
    ASSERT_TRUE(blocking_degraded.ok());
    EXPECT_EQ(blocking_degraded->step_seconds,
              blocking_healthy->step_seconds);
}

TEST(FaultModelTest, VarianceAwareGateFallsBackOnSevereDegradation)
{
    Mesh mesh(8);
    // Healthy pod: the large site is profitable and decomposes.
    auto healthy_module = BuildLargeAllGatherModule(mesh);
    CompilerOptions healthy;
    auto healthy_report =
        OverlapCompiler(healthy).Compile(healthy_module.get());
    ASSERT_TRUE(healthy_report.ok());
    EXPECT_EQ(healthy_report->decompose.total_decomposed(), 1);
    ASSERT_EQ(healthy_report->decompose.decisions.size(), 1u);
    EXPECT_EQ(healthy_report->decompose.decisions[0].reason, "decomposed");
    EXPECT_EQ(healthy_report->decompose.decisions[0].benefit_nominal,
              healthy_report->decompose.decisions[0].cost.Benefit());

    // Severely degraded ring link: the decomposed loop serializes on it
    // while the blocking collective does not -> fall back.
    auto degraded_module = BuildLargeAllGatherModule(mesh);
    CompilerOptions faulted;
    faulted.fault = SingleDegradedLink(mesh, 0, 0.02).spec;
    auto report = OverlapCompiler(faulted).Compile(degraded_module.get());
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->decompose.total_decomposed(), 0);
    EXPECT_EQ(report->decompose.fault_fallbacks, 1);
    ASSERT_EQ(report->decompose.decisions.size(), 1u);
    const SiteDecision& decision = report->decompose.decisions[0];
    EXPECT_EQ(decision.reason, "fault_fallback_blocking");
    EXPECT_FALSE(decision.decomposed);
    EXPECT_GT(decision.benefit_nominal, 0.0);
    EXPECT_LT(decision.cost.Benefit(), 0.0);

    // The fallback module must still compile to something simulable and
    // keep the blocking collective's fault-immunity.
    HardwareSpec spec;
    auto run = PodSimulator(mesh, spec, FaultModel(faulted.fault))
                   .Run(*degraded_module);
    ASSERT_TRUE(run.ok());
}

TEST(FaultModelTest, GateLowersToUnidirectionalWhenOneDirectionIsSlow)
{
    Mesh mesh(8);
    auto module = BuildLargeAllGatherModule(mesh);
    // Degrade only engine direction 1 (data toward the higher ring
    // position): the bidirectional loop needs both directions, the
    // unidirectional loop only direction 0.
    CompilerOptions options;
    LinkFault fault;
    fault.src = 0;
    fault.dst = mesh.RingNeighbor(0, 0, 1);
    fault.bandwidth_factor = 0.05;
    fault.latency_factor = 20.0;
    options.fault.link_faults.push_back(fault);
    auto report = OverlapCompiler(options).Compile(module.get());
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->decompose.decisions.size(), 1u);
    const SiteDecision& decision = report->decompose.decisions[0];
    EXPECT_TRUE(decision.decomposed);
    EXPECT_TRUE(decision.lowered_to_unidirectional);
    EXPECT_EQ(report->decompose.fault_lowered, 1);
    EXPECT_EQ(report->decompose.total_decomposed(), 1);
}

TEST(FaultModelTest, TransientFailuresRetryAndCount)
{
    Mesh mesh(8);
    auto module = BuildLargeAllGatherModule(mesh);
    CompilerOptions force;
    force.decompose.use_cost_model = false;
    ASSERT_TRUE(OverlapCompiler(force).Compile(module.get()).ok());

    HardwareSpec spec;
    FaultSpec flaky = FlakyFabric(/*failure_probability=*/0.3).spec;
    PodSimulator sim(mesh, spec, FaultModel(flaky));
    auto faulty = sim.Run(*module);
    auto clean = PodSimulator(mesh, spec).Run(*module);
    ASSERT_TRUE(faulty.ok());
    ASSERT_TRUE(clean.ok());
    EXPECT_GT(faulty->retry.retries, 0);
    EXPECT_GT(faulty->step_seconds, clean->step_seconds);
    EXPECT_GT(faulty->transferred_bytes, clean->transferred_bytes);

    // Same seed, same trial -> identical counts (reproducible traces).
    auto again = sim.Run(*module);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->retry.retries, faulty->retry.retries);
    EXPECT_EQ(again->step_seconds, faulty->step_seconds);
}

TEST(FaultModelTest, TrialStatsArePercentileOrderedAndReproducible)
{
    Mesh mesh(8);
    auto module = BuildLargeAllGatherModule(mesh);
    CompilerOptions force;
    force.decompose.use_cost_model = false;
    ASSERT_TRUE(OverlapCompiler(force).Compile(module.get()).ok());

    HardwareSpec spec;
    FaultSpec noisy = AgingPod(/*seed=*/5).spec;
    noisy.transient_failure_probability = 0.05;
    PodSimulator sim(mesh, spec, FaultModel(noisy));
    auto trials = sim.RunTrials(*module, 32);
    ASSERT_TRUE(trials.ok());
    EXPECT_EQ(trials->num_trials, 32);
    EXPECT_EQ(trials->step_seconds.size(), 32u);
    EXPECT_LE(trials->min_step_seconds, trials->p50_step_seconds);
    EXPECT_LE(trials->p50_step_seconds, trials->p99_step_seconds);
    EXPECT_LE(trials->p99_step_seconds, trials->max_step_seconds);
    EXPECT_GT(trials->min_step_seconds, 0.0);

    auto again = sim.RunTrials(*module, 32);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->step_seconds, trials->step_seconds);
    EXPECT_EQ(again->total_retries, trials->total_retries);

    // Fault-free trials collapse to a point distribution.
    auto flat = PodSimulator(mesh, spec).RunTrials(*module, 8);
    ASSERT_TRUE(flat.ok());
    EXPECT_EQ(flat->min_step_seconds, flat->max_step_seconds);
    EXPECT_EQ(flat->total_retries, 0);
}

TEST(FaultModelTest, PodRunnerForwardsFaultsToGateAndSimulator)
{
    // End-to-end through SimulateModelStepTrials: a degraded pod makes
    // the runner's p99 at least its p50, and the compile report carries
    // the gate's decisions.
    ModelConfig config = Table2GptModels()[0];
    CompilerOptions options;
    options.fault = AgingPod(/*seed=*/3).spec;
    options.fault.transient_failure_probability = 0.02;
    auto report = SimulateModelStepTrials(config, options, 8);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->trials.num_trials, 8);
    EXPECT_GE(report->p99_step_seconds, report->p50_step_seconds);
    EXPECT_GT(report->p50_step_seconds, 0.0);
    EXPECT_FALSE(report->compile.decompose.decisions.empty());
}

}  // namespace
}  // namespace overlap
