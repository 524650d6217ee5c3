/**
 * @file
 * Silent-data-corruption detection, localization and containment
 * (DESIGN.md §16): checksum/ABFT primitives, evaluator-level injection
 * and detection, the simulator's detector accounting, the elastic containment loop
 * (rollback to a bit-identical state, repeat-offender quarantine) and
 * the service's rejected-never-emitted path.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "core/pod_runner.h"
#include "core/recovery/step_program.h"
#include "core/service/pod_service.h"
#include "hlo/builder.h"
#include "interp/comparison.h"
#include "interp/evaluator.h"
#include "models/fault_presets.h"
#include "sim/engine.h"
#include "tensor/checksum.h"

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

SdcDetectorConfig
DetectorsOn()
{
    SdcDetectorConfig detectors;
    detectors.enabled = true;
    return detectors;
}

// ---- Primitives -----------------------------------------------------

TEST(ChecksumTest, PayloadChecksumIsExactOnBitPatterns)
{
    Tensor t = Tensor::Random(Shape({6, 5}), 3);
    const uint64_t clean = PayloadChecksum(t);
    EXPECT_EQ(clean, PayloadChecksum(t));  // deterministic

    // Any single-bit difference changes the hash — including the
    // lowest mantissa bit and the sign of zero, which tolerance-based
    // comparisons would wave through.
    Tensor flipped = t;
    uint32_t bits = 0;
    std::memcpy(&bits, &flipped.values()[7], sizeof(bits));
    bits ^= 1u;
    std::memcpy(&flipped.values()[7], &bits, sizeof(bits));
    EXPECT_NE(clean, PayloadChecksum(flipped));

    Tensor zeros(Shape({2, 2}));
    Tensor negzeros(Shape({2, 2}));
    for (float& v : negzeros.values()) v = -0.0f;
    EXPECT_NE(PayloadChecksum(zeros), PayloadChecksum(negzeros));
}

TEST(ChecksumTest, BytesChecksumCatchesEveryBytePosition)
{
    std::vector<uint8_t> bytes(64);
    for (size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = static_cast<uint8_t>(i * 7);
    }
    const uint64_t clean = BytesChecksum(bytes.data(), bytes.size());
    for (size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] ^= 0x01;
        EXPECT_NE(clean, BytesChecksum(bytes.data(), bytes.size()))
            << "flip at byte " << i << " not detected";
        bytes[i] ^= 0x01;
    }
    EXPECT_EQ(clean, BytesChecksum(bytes.data(), bytes.size()));
}

TEST(ChecksumTest, AbftCadenceUsesAGlobalCounterAcrossSteps)
{
    // Cadence 1 (the default) checks everything.
    for (int64_t step = 0; step < 3; ++step) {
        for (int64_t ordinal = 0; ordinal < 3; ++ordinal) {
            EXPECT_TRUE(AbftChecked(step, ordinal, 3, 1));
        }
    }
    // Cadence 3 over 2 einsums/step: the checked global indices are
    // 0, 3, 6, ... — the checked *ordinal* rotates across steps instead
    // of re-checking ordinal 0 every step.
    EXPECT_TRUE(AbftChecked(0, 0, 2, 3));   // global 0
    EXPECT_FALSE(AbftChecked(0, 1, 2, 3));  // global 1
    EXPECT_FALSE(AbftChecked(1, 0, 2, 3));  // global 2
    EXPECT_TRUE(AbftChecked(1, 1, 2, 3));   // global 3
    EXPECT_FALSE(AbftChecked(2, 0, 2, 3));  // global 4
    EXPECT_FALSE(AbftChecked(2, 1, 2, 3));  // global 5
    EXPECT_TRUE(AbftChecked(3, 0, 2, 3));   // global 6
}

TEST(ChecksumTest, AbftVerifiesCleanEinsumAndCatchesCorruption)
{
    auto spec = EinsumSpec::Parse("ij,jk->ik");
    ASSERT_TRUE(spec.ok());
    Tensor lhs = Tensor::Random(Shape({4, 3}), 11);
    Tensor rhs = Tensor::Random(Shape({3, 5}), 12);
    auto out = spec->Evaluate(lhs, rhs);
    ASSERT_TRUE(out.ok());

    auto clean = AbftVerifyEinsum(*spec, lhs, rhs, *out, 1e-4);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_TRUE(clean->ok);
    EXPECT_LE(clean->max_residual, clean->tolerance);

    // A bit-30 flip moves the element by >= 2.0 — far over tolerance.
    SilentCorruption flip;
    flip.element = 9;
    Tensor corrupted = *out;
    ApplyCorruption(flip, &corrupted);
    auto caught = AbftVerifyEinsum(*spec, lhs, rhs, corrupted, 1e-4);
    ASSERT_TRUE(caught.ok());
    EXPECT_FALSE(caught->ok);
    EXPECT_GT(caught->max_residual, caught->tolerance);

    // A value perturbation at the default magnitude is caught too.
    SilentCorruption perturb;
    perturb.kind = CorruptionKind::kValuePerturbation;
    perturb.element = 2;
    corrupted = *out;
    ApplyCorruption(perturb, &corrupted);
    caught = AbftVerifyEinsum(*spec, lhs, rhs, corrupted, 1e-4);
    ASSERT_TRUE(caught.ok());
    EXPECT_FALSE(caught->ok);
}

TEST(ChecksumTest, ApplyCorruptionWrapsTheElementIndex)
{
    Tensor t(Shape({2, 2}));
    SilentCorruption c;
    c.element = 4 + 1;  // mod 4 -> element 1
    ApplyCorruption(c, &t);
    EXPECT_EQ(t.values()[1], 2.0f);  // 0.0 with bit 30 set is 2.0
    EXPECT_EQ(t.values()[0], 0.0f);
}

// ---- Evaluator: inject, detect, localize ----------------------------

struct EvalRun {
    Status status;
    SdcEvalSink sink;
    Tensor state_before;
    Tensor state_after;
};

/**
 * One advance of the elastic step under the given SDC config. Fills
 * `run` in place (the sink owns a mutex, so EvalRun is not movable).
 */
void
AdvanceWithSdc(const SilentCorruption* corruption, EvalRun* run)
{
    auto program =
        BuildElasticProgram(SmallSpec(), Mesh(4), ForcedOverlapOptions(),
                            InitialElasticState(SmallSpec()));
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    run->state_before = *LogicalElasticState(*program);

    SdcEvalConfig sdc;
    sdc.detectors = DetectorsOn();
    sdc.step = 0;
    if (corruption != nullptr) sdc.corruptions.push_back(*corruption);
    EvalOptions options;
    options.sdc = &sdc;
    options.sdc_sink = &run->sink;
    run->status = AdvanceElasticState(&program.value(), options);
    run->state_after = *LogicalElasticState(*program);
}

TEST(EvaluatorSdcTest, AbftDetectsAndLocalizesEinsumCorruption)
{
    SilentCorruption c;
    c.step = 0;
    c.chip = 1;
    c.instruction = 0;
    c.target = CorruptionTarget::kEinsumOutput;
    EvalRun run;
    AdvanceWithSdc(&c, &run);

    ASSERT_FALSE(run.status.ok());
    EXPECT_EQ(run.status.code(), StatusCode::kFailedPrecondition);
    ASSERT_TRUE(run.sink.detected());
    auto primary = run.sink.Primary();
    ASSERT_TRUE(primary.has_value());
    EXPECT_EQ(primary->detector, CorruptionDetector::kEinsumAbft);
    EXPECT_EQ(primary->chip, 1);
    EXPECT_EQ(primary->instruction, 0);
    EXPECT_GT(primary->residual, 0.0);

    // Containment at the data level: the aborted advance left the
    // state bitwise untouched.
    OutputComparison cmp = CompareOutputs({run.state_before},
                                          {run.state_after}, 0.0);
    EXPECT_TRUE(cmp.equal) << cmp.ToString();
}

TEST(EvaluatorSdcTest, TransferChecksumCatchesPayloadCorruption)
{
    SilentCorruption c;
    c.step = 0;
    c.chip = 2;
    c.instruction = 0;
    c.target = CorruptionTarget::kTransferPayload;
    EvalRun run;
    AdvanceWithSdc(&c, &run);

    ASSERT_FALSE(run.status.ok());
    auto primary = run.sink.Primary();
    ASSERT_TRUE(primary.has_value());
    EXPECT_EQ(primary->detector, CorruptionDetector::kTransferChecksum);
    EXPECT_EQ(primary->chip, 2);
}

TEST(EvaluatorSdcTest, PrimaryReportNamesTheCorruptedSite)
{
    SilentCorruption c;
    c.step = 0;
    c.chip = 3;
    c.instruction = 0;
    for (auto target : {CorruptionTarget::kEinsumOutput,
                        CorruptionTarget::kTransferPayload}) {
        c.target = target;
        EvalRun run;
        AdvanceWithSdc(&c, &run);
        ASSERT_FALSE(run.status.ok());
        EXPECT_EQ(run.status.code(), StatusCode::kFailedPrecondition);
        // The walk stops at the first detection: one report, and it is
        // the primary one.
        ASSERT_EQ(run.sink.reports().size(), 1u);
        auto primary = run.sink.Primary();
        ASSERT_TRUE(primary.has_value());
        EXPECT_EQ(primary->chip, 3);
        EXPECT_EQ(primary->instruction, 0);
        EXPECT_EQ(primary->step, 0);
        EXPECT_EQ(primary->detector,
                  target == CorruptionTarget::kEinsumOutput
                      ? CorruptionDetector::kEinsumAbft
                      : CorruptionDetector::kTransferChecksum);
        EXPECT_GE(primary->program_index, 0);
        EXPECT_EQ(run.status.message(),
                  "silent data corruption detected: " +
                      primary->ToString());
    }
}

TEST(EvaluatorSdcTest, TransferChecksumFailsTheWholeCollective)
{
    // A corrupted AllReduce payload is caught before the reduction
    // runs: the evaluation fails with FailedPrecondition for every
    // member and the report names the source chip and program index.
    Mesh mesh(4);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({8}));
    comp->set_root(b.AllReduce(p, mesh.Groups(0)));
    std::vector<std::vector<Tensor>> params(1);
    for (int64_t d = 0; d < 4; ++d) {
        params[0].push_back(Tensor::Random(
            Shape({8}), static_cast<uint64_t>(d) + 11));
    }

    SdcEvalConfig sdc;
    SilentCorruption corruption;
    corruption.step = 0;
    corruption.chip = 2;
    corruption.instruction = 0;
    corruption.target = CorruptionTarget::kTransferPayload;
    sdc.corruptions = {corruption};
    sdc.detectors.enabled = true;
    sdc.detectors.verify_transfers = true;
    sdc.detectors.verify_einsums = false;

    SdcEvalSink sink;
    EvalOptions options;
    options.sdc = &sdc;
    options.sdc_sink = &sink;
    auto result = SpmdEvaluator(mesh, options).Evaluate(*comp, params);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    auto primary = sink.Primary();
    ASSERT_TRUE(primary.has_value());
    EXPECT_EQ(primary->detector, CorruptionDetector::kTransferChecksum);
    EXPECT_EQ(primary->chip, 2);
    EXPECT_EQ(primary->instruction, 0);
    EXPECT_EQ(primary->program_index, 1);  // parameter, then all-reduce
    EXPECT_EQ(result.status().message(),
              "silent data corruption detected: " + primary->ToString());
}

TEST(EvaluatorSdcTest, CleanRunWithDetectorsOnIsBitIdenticalAndSilent)
{
    EvalRun checked;
    AdvanceWithSdc(nullptr, &checked);
    ASSERT_TRUE(checked.status.ok()) << checked.status.ToString();
    EXPECT_FALSE(checked.sink.detected());  // zero false positives
    EXPECT_TRUE(checked.sink.reports().empty());

    // The detectors only observe: the advanced state is bitwise equal
    // to an advance with no SDC machinery at all.
    auto program =
        BuildElasticProgram(SmallSpec(), Mesh(4), ForcedOverlapOptions(),
                            InitialElasticState(SmallSpec()));
    ASSERT_TRUE(program.ok());
    ASSERT_TRUE(AdvanceElasticState(&program.value()).ok());
    auto plain = LogicalElasticState(*program);
    ASSERT_TRUE(plain.ok());
    OutputComparison cmp =
        CompareOutputs({*plain}, {checked.state_after}, 0.0);
    EXPECT_TRUE(cmp.equal) << cmp.ToString();
}

// ---- Simulator: detector accounting and step outcome ----------------

TEST(EngineSdcTest, DetectionFillsOutcomeAndChargesDetectorTime)
{
    ElasticProgramSpec spec = SmallSpec();
    Mesh mesh(4);
    CompilerOptions options = ForcedOverlapOptions();
    options.fault = SdcCompute(/*chip=*/1, /*step=*/0).spec;
    auto program = BuildElasticProgram(spec, mesh, options,
                                       InitialElasticState(spec));
    ASSERT_TRUE(program.ok());
    PodSimulator simulator(mesh, options.hardware,
                           FaultModel(options.fault));
    auto outcome = simulator.RunStep(*program->module, /*step_index=*/0);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

    EXPECT_FALSE(outcome->failed);  // corruption crashes nothing
    EXPECT_TRUE(outcome->sdc_injected);
    EXPECT_TRUE(outcome->corrupted);
    EXPECT_FALSE(outcome->sdc_escaped);
    EXPECT_EQ(outcome->corruption.chip, 1);
    EXPECT_EQ(outcome->corruption.detector,
              CorruptionDetector::kEinsumAbft);
    EXPECT_GT(outcome->corruption_detected_at_seconds, 0.0);
    EXPECT_LE(outcome->corruption_detected_at_seconds,
              outcome->result.step_seconds);
    EXPECT_GT(outcome->result.detector_seconds, 0.0);
    EXPECT_GT(outcome->result.num_abft_checks, 0);
    EXPECT_GT(outcome->result.num_transfer_checksums, 0);

    // Run() has no containment loop: corruption surfaces as an error.
    auto run = simulator.Run(*program->module);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineSdcTest, TransferCorruptionIsCaughtInFlight)
{
    ElasticProgramSpec spec = SmallSpec();
    Mesh mesh(4);
    CompilerOptions options = ForcedOverlapOptions();
    options.fault = SdcTransfer(/*chip=*/2, /*step=*/0).spec;
    auto program = BuildElasticProgram(spec, mesh, options,
                                       InitialElasticState(spec));
    ASSERT_TRUE(program.ok());
    PodSimulator simulator(mesh, options.hardware,
                           FaultModel(options.fault));
    auto outcome = simulator.RunStep(*program->module, /*step_index=*/0);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->corrupted);
    EXPECT_EQ(outcome->corruption.detector,
              CorruptionDetector::kTransferChecksum);
    EXPECT_EQ(outcome->corruption.chip, 2);
}

TEST(EngineSdcTest, DetectorsOffEscapesWithUnchangedTiming)
{
    ElasticProgramSpec spec = SmallSpec();
    Mesh mesh(4);
    CompilerOptions healthy = ForcedOverlapOptions();
    auto program = BuildElasticProgram(spec, mesh, healthy,
                                       InitialElasticState(spec));
    ASSERT_TRUE(program.ok());
    auto baseline = PodSimulator(mesh, healthy.hardware, FaultModel())
                        .Run(*program->module);
    ASSERT_TRUE(baseline.ok());

    CompilerOptions blind = ForcedOverlapOptions();
    blind.fault = SdcUndetected(/*chip=*/1, /*step=*/0).spec;
    PodSimulator simulator(mesh, blind.hardware,
                           FaultModel(blind.fault));
    auto outcome = simulator.RunStep(*program->module, /*step_index=*/0);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->sdc_injected);
    EXPECT_TRUE(outcome->sdc_escaped);
    EXPECT_FALSE(outcome->corrupted);
    // No detectors -> no detector time, and the step is bit-identical
    // in timing to the healthy run (detection is opt-in).
    EXPECT_EQ(outcome->result.detector_seconds, 0.0);
    EXPECT_EQ(outcome->result.num_abft_checks, 0);
    EXPECT_EQ(outcome->result.num_transfer_checksums, 0);
    EXPECT_EQ(outcome->result.step_seconds, baseline->step_seconds);
}

// ---- Elastic containment: detect -> rollback -> replay --------------

StatusOr<ElasticRunReport>
RunElastic(const FaultSpec& fault, int64_t num_steps = 6)
{
    ElasticRunOptions options;
    options.num_steps = num_steps;
    options.checkpoint_interval = 2;
    options.program = SmallSpec();
    options.compiler = ForcedOverlapOptions();
    options.compiler.fault = fault;
    return RunElasticTraining(Mesh(4), options);
}

TEST(ContainmentTest, DetectedCorruptionRollsBackToBitIdenticalState)
{
    auto clean = RunElastic(FaultSpec());
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ASSERT_EQ(clean->sdc.detected, 0);

    for (const FaultScenario& scenario :
         {SdcCompute(/*chip=*/1, /*step=*/3),
          SdcTransfer(/*chip=*/1, /*step=*/3)}) {
        auto report = RunElastic(scenario.spec);
        ASSERT_TRUE(report.ok())
            << scenario.name << ": " << report.status().ToString();
        EXPECT_GE(report->sdc.detected, 1) << scenario.name;
        EXPECT_EQ(report->sdc.escaped, 0) << scenario.name;
        EXPECT_GE(report->sdc.rollbacks, 1) << scenario.name;
        EXPECT_GT(report->sdc.replayed_steps, 0) << scenario.name;
        EXPECT_GT(report->sdc.detection_latency_seconds, 0.0);
        EXPECT_GT(report->sdc.rollback_seconds, 0.0);
        EXPECT_FALSE(report->sdc.quarantined);
        EXPECT_FALSE(report->sdc.last_report.empty());
        EXPECT_EQ(report->final_mesh.num_devices(), 4);
        // Recovery cost is real simulated time, never free.
        EXPECT_GT(report->total_seconds, 0.0);

        // The tentpole guarantee: the recovered run ends in a state
        // *bitwise* equal to the never-corrupted run — rollback went to
        // a clean checkpoint and the replay consumed the injection.
        OutputComparison cmp = CompareOutputs(
            {clean->final_state}, {report->final_state}, 0.0);
        EXPECT_TRUE(cmp.equal) << scenario.name << ": " << cmp.ToString();
    }
}

TEST(ContainmentTest, RepeatOffenderIsQuarantinedOntoSurvivorMesh)
{
    // Chip 1 corrupts twice (the second injection lands after the
    // first rollback's replay): with the default strike limit of 2 the
    // second detection quarantines it like a dead chip.
    FaultSpec fault = SdcCompute(/*chip=*/1, /*step=*/3).spec;
    SilentCorruption again;
    again.step = 5;
    again.chip = 1;
    fault.silent_corruptions.push_back(again);

    const int64_t num_steps = 8;
    auto report = RunElastic(fault, num_steps);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GE(report->sdc.detected, 2);
    EXPECT_EQ(report->sdc.escaped, 0);
    EXPECT_TRUE(report->sdc.quarantined);
    EXPECT_EQ(report->sdc.quarantined_chip, 1);
    EXPECT_EQ(report->final_mesh.num_devices(), 3);

    // The finish on the survivor ring re-ran the §5.5 gate; the final
    // state matches a clean full-mesh run within decomposition
    // reassociation tolerance (ring 3 re-pads 8 -> 9 rows).
    auto clean = RunElastic(FaultSpec(), num_steps);
    ASSERT_TRUE(clean.ok());
    double tolerance =
        EquivalenceTolerance(DType::kF32,
                             PaddedRows(SmallSpec().logical_rows, 4)) *
        static_cast<double>(num_steps);
    OutputComparison cmp = CompareOutputs(
        {clean->final_state}, {report->final_state}, tolerance);
    EXPECT_TRUE(cmp.equal) << cmp.ToString();
}

TEST(ContainmentTest, EscapedCorruptionIsCountedAndPoisonsState)
{
    auto clean = RunElastic(FaultSpec());
    ASSERT_TRUE(clean.ok());
    auto blind = RunElastic(SdcUndetected(/*chip=*/1, /*step=*/3).spec);
    ASSERT_TRUE(blind.ok()) << blind.status().ToString();
    EXPECT_EQ(blind->sdc.detected, 0);
    EXPECT_GE(blind->sdc.escaped, 1);
    EXPECT_EQ(blind->sdc.rollbacks, 0);
    // The poisoned state propagated to the final value — exactly what
    // the detectors exist to prevent.
    OutputComparison cmp = CompareOutputs(
        {clean->final_state}, {blind->final_state}, 0.0);
    EXPECT_FALSE(cmp.equal);
}

// ---- Service: rejected, never emitted -------------------------------

ServiceOptions
LightServiceOptions()
{
    ServiceOptions options;
    options.arrivals.seed = 21;
    options.arrivals.duration_seconds = 0.05;
    options.arrivals.inference_rate_hz = 1000.0;
    options.arrivals.training_rate_hz = 400.0;
    options.arrivals.inference_slo_seconds = 0.05;
    return options;
}

TEST(ServiceSdcTest, CorruptedResponseIsRejectedNeverEmitted)
{
    ServiceOptions options = LightServiceOptions();
    options.compiler.fault = SdcCompute(/*chip=*/1, /*step=*/3).spec;
    auto report = PodService(Mesh(4), options).Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    EXPECT_GE(report->corruption_detections, 1);
    EXPECT_GE(report->inference.corrupted_rejected +
                  report->training.corrupted_rejected,
              1);
    // The rejected request is a terminal bucket: the conservation laws
    // still close — nothing corrupted was silently emitted or lost.
    EXPECT_TRUE(report->inference.Consistent());
    EXPECT_TRUE(report->training.Consistent());
    EXPECT_FALSE(report->sdc_quarantined);
    EXPECT_EQ(report->final_mesh.num_devices(), 4);
    EXPECT_NE(report->ToJson().find("\"corrupted_rejected\""),
              std::string::npos);
}

TEST(ServiceSdcTest, StrikeLimitQuarantinesTheChipUnderLoad)
{
    ServiceOptions options = LightServiceOptions();
    options.compiler.fault = SdcCompute(/*chip=*/1, /*step=*/3).spec;
    SilentCorruption again;
    again.step = 8;
    again.chip = 1;
    options.compiler.fault.silent_corruptions.push_back(again);

    auto report = PodService(Mesh(4), options).Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GE(report->corruption_detections, 2);
    EXPECT_TRUE(report->sdc_quarantined);
    EXPECT_EQ(report->sdc_quarantined_chip, 1);
    // Quarantine rode the regular recovery path onto the survivor mesh.
    ASSERT_GE(report->recoveries.size(), 1u);
    EXPECT_EQ(report->final_mesh.num_devices(), 3);
    EXPECT_TRUE(report->inference.Consistent());
    EXPECT_TRUE(report->training.Consistent());
    EXPECT_FALSE(report->overloaded);
}

}  // namespace
}  // namespace overlap
