#include "models/fault_presets.h"

namespace overlap {

FaultScenario
SingleDegradedLink(const Mesh& mesh, int64_t axis, double bandwidth_factor)
{
    FaultScenario scenario;
    scenario.name = "single_degraded_link";
    scenario.description =
        "one directed ring link at reduced bandwidth (serializes the "
        "decomposed ring; blocking collectives route around it)";
    LinkFault fault;
    fault.src = 0;
    // Engine direction 0 carries data toward the lower ring position.
    fault.dst = mesh.RingNeighbor(0, axis, -1);
    fault.bandwidth_factor = bandwidth_factor;
    fault.latency_factor = 1.0 / bandwidth_factor;
    scenario.spec.link_faults.push_back(fault);
    return scenario;
}

FaultScenario
FlakyFabric(double failure_probability, uint64_t seed)
{
    FaultScenario scenario;
    scenario.name = "flaky_fabric";
    scenario.description =
        "transient CollectivePermute failures retried under capped "
        "exponential backoff with seeded jitter";
    scenario.spec.seed = seed;
    scenario.spec.transient_failure_probability = failure_probability;
    scenario.spec.retry = RetryPolicy{};  // the defaults, explicitly
    return scenario;
}

FaultScenario
ChipDeath(int64_t chip, int64_t fail_step, double fail_time_seconds)
{
    FaultScenario scenario;
    scenario.name = "chip_death";
    scenario.description =
        "one chip dies permanently mid-run; survivable only by the "
        "elastic recovery runtime (detect, restore, replan, resume)";
    PermanentFault fault;
    fault.chip = chip;
    fault.fail_step = fail_step;
    fault.fail_time_seconds = fail_time_seconds;
    scenario.spec.permanent_faults.push_back(fault);
    return scenario;
}

FaultScenario
LinkDeath(const Mesh& mesh, int64_t axis, int64_t fail_step,
          double fail_time_seconds)
{
    FaultScenario scenario;
    scenario.name = "link_death";
    scenario.description =
        "one directed ring link dies permanently mid-run; every "
        "collective crossing it blocks until the watchdog fires";
    PermanentFault fault;
    fault.link_src = 0;
    // Engine direction 0 carries data toward the lower ring position.
    fault.link_dst = mesh.RingNeighbor(0, axis, -1);
    fault.fail_step = fail_step;
    fault.fail_time_seconds = fail_time_seconds;
    scenario.spec.permanent_faults.push_back(fault);
    return scenario;
}

FaultScenario
AgingPod(uint64_t seed)
{
    FaultScenario scenario;
    scenario.name = "aging_pod";
    scenario.description =
        "seeded mild link degradation plus per-trial link/compute jitter";
    scenario.spec.seed = seed;
    scenario.spec.link_degrade_probability = 0.05;
    scenario.spec.link_degrade_factor = 0.5;
    scenario.spec.link_degrade_latency_factor = 2.0;
    scenario.spec.link_jitter = 0.1;
    scenario.spec.compute_jitter = 0.05;
    return scenario;
}

FaultScenario
SdcCompute(int64_t chip, int64_t step, int64_t instruction)
{
    FaultScenario scenario;
    scenario.name = "sdc_compute";
    scenario.description =
        "silent bit flip in one einsum output element, caught by the "
        "ABFT checksum-row detector before the result is emitted";
    SilentCorruption corruption;
    corruption.step = step;
    corruption.chip = chip;
    corruption.instruction = instruction;
    corruption.target = CorruptionTarget::kEinsumOutput;
    scenario.spec.silent_corruptions.push_back(corruption);
    scenario.spec.sdc.enabled = true;
    return scenario;
}

FaultScenario
SdcTransfer(int64_t chip, int64_t step, int64_t instruction)
{
    FaultScenario scenario;
    scenario.name = "sdc_transfer";
    scenario.description =
        "silent bit flip in one in-flight collective payload, caught by "
        "the receiver-side checksum (localizes the source chip)";
    SilentCorruption corruption;
    corruption.step = step;
    corruption.chip = chip;
    corruption.instruction = instruction;
    corruption.target = CorruptionTarget::kTransferPayload;
    scenario.spec.silent_corruptions.push_back(corruption);
    scenario.spec.sdc.enabled = true;
    return scenario;
}

FaultScenario
SdcUndetected(int64_t chip, int64_t step, int64_t instruction)
{
    FaultScenario scenario = SdcCompute(chip, step, instruction);
    scenario.name = "sdc_undetected";
    scenario.description =
        "the same einsum-output bit flip with every detector off: the "
        "corruption escapes and propagates into later steps";
    scenario.spec.sdc = SdcDetectorConfig();  // enabled = false
    return scenario;
}

}  // namespace overlap
