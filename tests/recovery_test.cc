/**
 * @file
 * Elastic recovery runtime (DESIGN.md §11): checkpoint round-trips,
 * survivor-mesh planning, watchdog failure reports, mid-step chip death
 * at each phase of the unrolled decomposed loop, and the difftest
 * closure — a recovered run's final state matches a never-failed run on
 * the survivor mesh within decomposition tolerance.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "core/pod_runner.h"
#include "core/recovery/checkpoint.h"
#include "core/recovery/elastic_session.h"
#include "core/recovery/recovery_planner.h"
#include "core/recovery/step_program.h"
#include "interp/comparison.h"
#include "models/fault_presets.h"
#include "sim/engine.h"
#include "test_util.h"

namespace overlap {
namespace {

/** Spec whose padded extents decompose on both 4- and 3-rings. */
ElasticProgramSpec
SmallSpec()
{
    ElasticProgramSpec spec;
    spec.logical_rows = 8;
    spec.feature = 4;
    spec.data_seed = 77;
    return spec;
}

/** Overlap compiler forced to decompose (the sites are tiny). */
CompilerOptions
ForcedOverlapOptions()
{
    CompilerOptions options;
    options.decompose.use_cost_model = false;
    return options;
}

TEST(CheckpointTest, SerializeRoundTripIsBitwise)
{
    Tensor original = Tensor::Random(Shape({5, 3}), 99);
    original.values()[0] = -0.0f;  // sign of zero must survive
    auto restored =
        CheckpointStore::Deserialize(CheckpointStore::Serialize(original));
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ASSERT_EQ(restored->shape(), original.shape());
    ASSERT_EQ(restored->values().size(), original.values().size());
    EXPECT_EQ(0, std::memcmp(restored->values().data(),
                             original.values().data(),
                             original.values().size() * sizeof(float)));
}

TEST(CheckpointTest, StoreRestoresLatestSnapshotThroughBytes)
{
    CheckpointStore store(/*interval=*/2);
    EXPECT_FALSE(store.has_checkpoint());
    EXPECT_FALSE(store.Restore().ok());

    Tensor state0 = Tensor::Random(Shape({4, 2}), 1);
    Tensor state2 = Tensor::Random(Shape({4, 2}), 2);
    EXPECT_TRUE(store.MaybeSave(0, state0));
    EXPECT_FALSE(store.MaybeSave(1, state0));  // off-interval
    EXPECT_TRUE(store.MaybeSave(2, state2));
    EXPECT_EQ(store.latest_step(), 2);
    EXPECT_EQ(store.num_saves(), 2);
    EXPECT_GT(store.stored_bytes(), 0);

    auto restored = store.Restore();
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(0, std::memcmp(restored->values().data(),
                             state2.values().data(),
                             state2.values().size() * sizeof(float)));
}

TEST(CheckpointTest, DeserializeRejectsCorruptBytes)
{
    EXPECT_FALSE(CheckpointStore::Deserialize({}).ok());
    std::vector<uint8_t> bytes =
        CheckpointStore::Serialize(Tensor::Random(Shape({3, 3}), 5));
    bytes.pop_back();  // truncate the payload
    EXPECT_FALSE(CheckpointStore::Deserialize(bytes).ok());
}

TEST(CheckpointTest, RestoreRejectsSingleFlippedByte)
{
    CheckpointStore store(/*interval=*/1);
    Tensor state = Tensor::Random(Shape({4, 3}), 21);
    ASSERT_TRUE(store.MaybeSave(0, state));
    ASSERT_TRUE(store.Restore().ok());

    // Flip one payload byte on the stored (serialized) snapshot — the
    // exact path recovery reads — and the trailing FNV-1a checksum must
    // refuse it instead of restoring poisoned state (DESIGN.md §16).
    std::vector<uint8_t>& bytes = store.mutable_latest_bytes();
    bytes[bytes.size() / 2] ^= 0x10;
    auto restored = store.Restore();
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(restored.status().ToString().find("checksum"),
              std::string::npos);

    // Flipping it back restores integrity: the store itself was not
    // invalidated, only the corrupted copy rejected.
    bytes[bytes.size() / 2] ^= 0x10;
    EXPECT_TRUE(store.Restore().ok());
}

TEST(CheckpointTest, RestoreAtOrBeforeRollsPastLatestSnapshot)
{
    CheckpointStore store(/*interval=*/2);
    Tensor state0 = Tensor::Random(Shape({3, 2}), 10);
    Tensor state2 = Tensor::Random(Shape({3, 2}), 11);
    Tensor state4 = Tensor::Random(Shape({3, 2}), 12);
    ASSERT_TRUE(store.MaybeSave(0, state0));
    ASSERT_TRUE(store.MaybeSave(2, state2));
    ASSERT_TRUE(store.MaybeSave(4, state4));

    // SDC rollback restores to the snapshot at or before the corrupted
    // step, not necessarily the latest one.
    EXPECT_EQ(store.StepAtOrBefore(3), 2);
    EXPECT_EQ(store.StepAtOrBefore(1), 0);
    EXPECT_EQ(store.StepAtOrBefore(-1), -1);
    auto rolled = store.RestoreAtOrBefore(3);
    ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
    EXPECT_EQ(0, std::memcmp(rolled->values().data(),
                             state2.values().data(),
                             state2.values().size() * sizeof(float)));

    // Re-saving at step 2 after a rollback drops the stale timeline.
    store.Save(2, state2);
    EXPECT_EQ(store.latest_step(), 2);
}

TEST(RecoveryPlannerTest, ChipDeathShrinksRingAndRemapsFaults)
{
    Mesh mesh(4);
    FaultSpec fault = ChipDeath(/*chip=*/2, /*fail_step=*/1).spec;
    ChipFault straggler;
    straggler.chip = 3;
    straggler.compute_factor = 0.5;
    fault.chip_faults.push_back(straggler);

    FailureReport report;
    report.cause = FailureCause::kChipDeath;
    report.dead_chip = 2;
    auto plan = RecoveryPlanner::PlanSurvivorMesh(mesh, fault, report);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->mesh.num_devices(), 3);
    EXPECT_EQ(plan->survivors, (std::vector<int64_t>{0, 1, 3}));
    EXPECT_TRUE(plan->ring_parity_changed);
    // The fault that fired is gone; the straggler follows its chip to
    // its new ring position.
    EXPECT_TRUE(plan->fault.permanent_faults.empty());
    ASSERT_EQ(plan->fault.chip_faults.size(), 1u);
    EXPECT_EQ(plan->fault.chip_faults[0].chip, 2);
}

TEST(RecoveryPlannerTest, TwoDMeshDropsHyperplaneAlongLargestAxis)
{
    Mesh mesh(2, 4);
    FailureReport report;
    report.cause = FailureCause::kChipDeath;
    report.dead_chip = mesh.DeviceAt({1, 2});
    auto plan =
        RecoveryPlanner::PlanSurvivorMesh(mesh, FaultSpec(), report);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->dropped_axis, 1);
    EXPECT_EQ(plan->mesh.axis_size(0), 2);
    EXPECT_EQ(plan->mesh.axis_size(1), 3);
    // Every survivor with y-coordinate 2 on the old mesh is gone.
    for (int64_t old_id : plan->survivors) {
        EXPECT_NE(mesh.Coords(old_id)[1], 2);
    }
    EXPECT_EQ(static_cast<int64_t>(plan->survivors.size()), 6);
}

TEST(RecoveryPlannerTest, LinkDeathEvictsSourceEndpoint)
{
    Mesh mesh(4);
    FailureReport report;
    report.cause = FailureCause::kLinkDeath;
    report.dead_link_src = 1;
    report.dead_link_dst = 0;
    auto plan =
        RecoveryPlanner::PlanSurvivorMesh(mesh, FaultSpec(), report);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->survivors, (std::vector<int64_t>{0, 2, 3}));
}

TEST(RecoveryPlannerTest, RefusesToShrinkBelowTwoDevices)
{
    Mesh mesh(2);
    FailureReport report;
    report.cause = FailureCause::kChipDeath;
    report.dead_chip = 0;
    auto plan =
        RecoveryPlanner::PlanSurvivorMesh(mesh, FaultSpec(), report);
    EXPECT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StepProgramTest, LogicalStateIsMeshIndependent)
{
    ElasticProgramSpec spec = SmallSpec();
    const int64_t steps = 4;
    Tensor final_states[2];
    int64_t rings[2] = {4, 3};  // 3 forces re-padding (8 -> 9 rows)
    for (int i = 0; i < 2; ++i) {
        Mesh mesh(rings[i]);
        auto program = BuildElasticProgram(spec, mesh,
                                           ForcedOverlapOptions(),
                                           InitialElasticState(spec));
        ASSERT_TRUE(program.ok()) << program.status().ToString();
        for (int64_t s = 0; s < steps; ++s) {
            ASSERT_TRUE(AdvanceElasticState(&program.value()).ok());
        }
        auto state = LogicalElasticState(*program);
        ASSERT_TRUE(state.ok());
        final_states[i] = std::move(state).value();
    }
    double tolerance =
        EquivalenceTolerance(DType::kF32, PaddedRows(spec.logical_rows, 4)) *
        static_cast<double>(steps);
    OutputComparison cmp = CompareOutputs(
        {final_states[0]}, {final_states[1]}, tolerance);
    EXPECT_TRUE(cmp.equal) << cmp.ToString();
}

TEST(RecoveryTest, WatchdogReportsChipDeathWithBlockedInstructions)
{
    ElasticProgramSpec spec = SmallSpec();
    Mesh mesh(4);
    CompilerOptions options = ForcedOverlapOptions();
    options.fault = ChipDeath(/*chip=*/1, /*fail_step=*/0).spec;
    auto program = BuildElasticProgram(spec, mesh, options,
                                       InitialElasticState(spec));
    ASSERT_TRUE(program.ok()) << program.status().ToString();

    PodSimulator simulator(mesh, options.hardware,
                           FaultModel(options.fault));
    auto outcome = simulator.RunStep(*program->module, /*step_index=*/0);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome->failed);
    const FailureReport& failure = outcome->failure;
    EXPECT_EQ(failure.cause, FailureCause::kChipDeath);
    EXPECT_EQ(failure.dead_chip, 1);
    EXPECT_EQ(failure.failed_step, 0);
    EXPECT_EQ(failure.last_completed_step, -1);
    EXPECT_FALSE(failure.blocked_instructions.empty());
    EXPECT_GT(failure.detected_at_seconds, failure.last_progress_seconds);
    EXPECT_NE(failure.ToString().find("chip 1"), std::string::npos);

    // Run() has no recovery path: the report surfaces as an error.
    auto run = simulator.Run(*program->module);
    EXPECT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition);
}

/**
 * Chip death lands at a given fraction of the healthy step time —
 * prologue, steady state, or epilogue of the unrolled decomposed loop —
 * and the elastic loop must recover from all of them.
 */
class ChipDeathPhaseTest : public ::testing::TestWithParam<double> {};

TEST_P(ChipDeathPhaseTest, RecoversFromMidStepChipDeath)
{
    ElasticProgramSpec spec = SmallSpec();
    Mesh mesh(4);
    CompilerOptions healthy = ForcedOverlapOptions();
    auto program = BuildElasticProgram(spec, mesh, healthy,
                                       InitialElasticState(spec));
    ASSERT_TRUE(program.ok());
    EXPECT_GT(program->compile.decompose.total_decomposed(), 0);
    PodSimulator simulator(mesh, healthy.hardware, FaultModel());
    auto healthy_run = simulator.Run(*program->module);
    ASSERT_TRUE(healthy_run.ok());
    double step_time = healthy_run->step_seconds;
    ASSERT_GT(step_time, 0.0);

    ElasticRunOptions options;
    options.num_steps = 6;
    options.checkpoint_interval = 2;
    options.program = spec;
    options.compiler = ForcedOverlapOptions();
    options.compiler.fault =
        ChipDeath(/*chip=*/1, /*fail_step=*/3,
                  /*fail_time_seconds=*/GetParam() * step_time)
            .spec;
    auto report = RunElasticTraining(mesh, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->recoveries.size(), 1u);
    const RecoveryEvent& recovery = report->recoveries[0];
    EXPECT_EQ(report->final_mesh.num_devices(), 3);
    EXPECT_GE(recovery.failed_step, 3);
    EXPECT_LE(recovery.checkpoint_step, recovery.failed_step);
    EXPECT_GT(recovery.detection_seconds, 0.0);
    EXPECT_GT(recovery.restore_seconds, 0.0);
    EXPECT_GT(recovery.replan_seconds, 0.0);
    EXPECT_GT(recovery.LatencySeconds(), 0.0);
    // Recovery overhead is on top of useful work, never free.
    EXPECT_GT(report->total_seconds,
              report->steps.mean_step_seconds *
                  static_cast<double>(options.num_steps));
}

INSTANTIATE_TEST_SUITE_P(LoopPhases, ChipDeathPhaseTest,
                         ::testing::Values(0.02,   // prologue
                                           0.5,    // steady state
                                           0.95))  // epilogue
    ;

/** The tentpole's difftest closure. */
TEST(RecoveryTest, RecoveredRunMatchesSurvivorBaseline)
{
    ElasticProgramSpec spec = SmallSpec();
    const int64_t num_steps = 6;

    ElasticRunOptions failing;
    failing.num_steps = num_steps;
    failing.checkpoint_interval = 2;
    failing.program = spec;
    failing.compiler = ForcedOverlapOptions();
    failing.compiler.fault =
        ChipDeath(/*chip=*/2, /*fail_step=*/3, /*fail_time=*/1e-6).spec;
    auto recovered = RunElasticTraining(Mesh(4), failing);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ASSERT_EQ(recovered->recoveries.size(), 1u);
    ASSERT_EQ(recovered->final_mesh.num_devices(), 3);

    // The baseline never fails and runs on the survivor ring from
    // step 0. The §5.5 gate re-ran during replanning: ring 3 is odd, so
    // BidirectionalRingEligible fails and the recompiled loops are
    // unidirectional on both sides of the comparison.
    ElasticRunOptions baseline;
    baseline.num_steps = num_steps;
    baseline.checkpoint_interval = 2;
    baseline.program = spec;
    baseline.compiler = ForcedOverlapOptions();
    auto survivor = RunElasticTraining(Mesh(3), baseline);
    ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
    EXPECT_TRUE(survivor->recoveries.empty());

    double tolerance =
        EquivalenceTolerance(DType::kF32,
                             PaddedRows(spec.logical_rows, 4)) *
        static_cast<double>(num_steps);
    OutputComparison cmp = CompareOutputs({survivor->final_state},
                                          {recovered->final_state},
                                          tolerance);
    EXPECT_TRUE(cmp.equal) << cmp.ToString();

    // Recovery latency is reported through the step-trial view.
    StepTrialReport trial = recovered->AsStepTrialReport();
    ASSERT_EQ(trial.recoveries.size(), 1u);
    EXPECT_GT(trial.recoveries[0].LatencySeconds(), 0.0);
    EXPECT_NE(trial.ToString().find("recovery"), std::string::npos);
}

TEST(RecoveryTest, LinkDeathRecoversByEvictingEndpoint)
{
    ElasticProgramSpec spec = SmallSpec();
    Mesh mesh(4);
    ElasticRunOptions options;
    options.num_steps = 5;
    options.checkpoint_interval = 2;
    options.program = spec;
    options.compiler = ForcedOverlapOptions();
    options.compiler.fault =
        LinkDeath(mesh, /*axis=*/0, /*fail_step=*/2).spec;
    auto report = RunElasticTraining(mesh, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->recoveries.size(), 1u);
    EXPECT_EQ(report->final_mesh.num_devices(), 3);
    EXPECT_NE(report->recoveries[0].failure_summary.find("link"),
              std::string::npos);
}

TEST(RecoveryTest, RetryExhaustionEscalatesToWatchdog)
{
    ElasticProgramSpec spec = SmallSpec();
    Mesh mesh(4);
    CompilerOptions options = ForcedOverlapOptions();
    options.fault.transient_failure_probability = 0.999;
    options.fault.retry.max_transfer_retries = 2;
    options.fault.seed = 13;
    auto program = BuildElasticProgram(spec, mesh, options,
                                       InitialElasticState(spec));
    ASSERT_TRUE(program.ok());
    PodSimulator simulator(mesh, options.hardware,
                           FaultModel(options.fault));
    auto outcome = simulator.RunStep(*program->module, /*step_index=*/0);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome->failed);
    EXPECT_EQ(outcome->failure.cause, FailureCause::kRetryExhaustion);
    EXPECT_GE(outcome->failure.dead_link_src, 0);
    EXPECT_FALSE(outcome->failure.blocked_instructions.empty());
}

TEST(RecoveryTest, SecondPermanentFailureShrinksTheMeshAgain)
{
    ElasticProgramSpec spec = SmallSpec();
    const int64_t num_steps = 8;
    ElasticRunOptions options;
    options.num_steps = num_steps;
    options.checkpoint_interval = 2;
    options.program = spec;
    options.compiler = ForcedOverlapOptions();
    // Chip 3 dies at step 2; chip 0 (same id on the survivor mesh, so
    // the remapped fault survives replanning) dies at step 6.
    options.compiler.fault = ChipDeath(/*chip=*/3, /*fail_step=*/2).spec;
    PermanentFault second;
    second.chip = 0;
    second.fail_step = 6;
    options.compiler.fault.permanent_faults.push_back(second);
    auto report = RunElasticTraining(Mesh(4), options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->recoveries.size(), 2u);
    EXPECT_EQ(report->final_mesh.ToString(), Mesh(2).ToString());
    EXPECT_NE(report->recoveries[0].failure_summary.find("chip 3"),
              std::string::npos);
    EXPECT_NE(report->recoveries[1].failure_summary.find("chip 0"),
              std::string::npos);

    // Two replans later, the state still matches a run that never left
    // the 2-chip mesh.
    ElasticRunOptions baseline = options;
    baseline.compiler = ForcedOverlapOptions();
    auto survivor = RunElasticTraining(Mesh(2), baseline);
    ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
    EXPECT_TRUE(survivor->recoveries.empty());
    double tolerance =
        EquivalenceTolerance(DType::kF32,
                             PaddedRows(spec.logical_rows, 4)) *
        static_cast<double>(num_steps);
    OutputComparison cmp = CompareOutputs({survivor->final_state},
                                          {report->final_state}, tolerance);
    EXPECT_TRUE(cmp.equal) << cmp.ToString();
}

/**
 * A survivor compile the guard had to roll back fails the §5.5 gate:
 * recovery rebuilds on blocking lowering instead of trusting it.
 */
TEST(RecoveryTest, DistrustedSurvivorCompileFallsBackToBlocking)
{
    ElasticProgramSpec spec = SmallSpec();
    const int64_t num_steps = 6;
    ElasticRunOptions options;
    options.num_steps = num_steps;
    options.checkpoint_interval = 2;
    options.program = spec;
    options.compiler = ForcedOverlapOptions();
    options.compiler.extra_passes.push_back(testing_util::CorruptingPass());
    options.compiler.fault = ChipDeath(/*chip=*/1, /*fail_step=*/3).spec;
    auto report = RunElasticTraining(Mesh(4), options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    // The initial compile is not gated: it keeps its overlap.
    EXPECT_FALSE(report->initial_compile.pass_diagnostics.empty());
    EXPECT_GT(report->initial_compile.decompose.total_decomposed(), 0);

    ASSERT_EQ(report->recoveries.size(), 1u);
    const RecoveryEvent& recovery = report->recoveries[0];
    EXPECT_TRUE(recovery.degraded_blocking);
    EXPECT_TRUE(recovery.compile.decompose.decisions.empty());
    EXPECT_EQ(report->final_mesh.num_devices(), 3);

    ElasticRunOptions baseline;
    baseline.num_steps = num_steps;
    baseline.checkpoint_interval = 2;
    baseline.program = spec;
    baseline.compiler = ForcedOverlapOptions();
    auto survivor = RunElasticTraining(Mesh(3), baseline);
    ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
    double tolerance =
        EquivalenceTolerance(DType::kF32,
                             PaddedRows(spec.logical_rows, 4)) *
        static_cast<double>(num_steps);
    OutputComparison cmp = CompareOutputs({survivor->final_state},
                                          {report->final_state}, tolerance);
    EXPECT_TRUE(cmp.equal) << cmp.ToString();
}

/**
 * The strike ledger is keyed by current-mesh ids, so a replan clears it:
 * a strike charged to chip 1 before chip 0 dies must not land on the
 * survivor that becomes chip 1 on the 3-chip mesh (the old chip 2).
 */
TEST(RecoveryTest, ChipDeathReplanClearsTheStrikeLedger)
{
    ElasticSessionOptions options;
    options.training = SmallSpec();
    options.compiler = ForcedOverlapOptions();
    options.sdc_strike_limit = 2;
    auto session = ElasticSession::Create(Mesh(4), options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_FALSE(session->Strike(/*chip=*/1, /*step=*/1).has_value());

    FailureReport death;
    death.cause = FailureCause::kChipDeath;
    death.dead_chip = 0;
    death.failed_step = 2;
    death.last_completed_step = 1;
    auto recovery = session->Recover(death, /*restore_at=*/1);
    ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
    ASSERT_EQ(session->mesh().num_devices(), 3);

    // The survivor's first strike stays below the limit; its second
    // quarantines it.
    EXPECT_FALSE(session->Strike(/*chip=*/1, /*step=*/3).has_value());
    EXPECT_TRUE(session->Strike(/*chip=*/1, /*step=*/4).has_value());
}

TEST(RecoveryTest, RejectsZeroSdcStrikeLimit)
{
    ElasticRunOptions options;
    options.program = SmallSpec();
    options.compiler = ForcedOverlapOptions();
    options.sdc_strike_limit = 0;
    auto report = RunElasticTraining(Mesh(4), options);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace overlap
