#ifndef OVERLAP_MODELS_FAULT_PRESETS_H_
#define OVERLAP_MODELS_FAULT_PRESETS_H_

#include <string>

#include "sim/fault_model.h"
#include "tensor/mesh.h"

namespace overlap {

/** A named pod-degradation scenario for benches and tests. */
struct FaultScenario {
    std::string name;
    std::string description;
    FaultSpec spec;
};

/**
 * One directed ring link on mesh axis `axis` (the link device 0 sends
 * on in engine direction 0) runs at `bandwidth_factor` of nominal
 * bandwidth — the single-slow-link case that serializes a decomposed
 * ring while the runtime's blocking collectives route around it.
 */
FaultScenario SingleDegradedLink(const Mesh& mesh, int64_t axis = 0,
                                 double bandwidth_factor = 0.25);

/**
 * Transient CollectivePermute failures at `failure_probability` per
 * attempt, retried under capped exponential backoff with seeded jitter
 * (tail latency from retries; exhaustion escalates to the watchdog).
 */
FaultScenario FlakyFabric(double failure_probability = 0.02,
                          uint64_t seed = 7);

/**
 * Chip `chip` dies permanently at simulated time `fail_time_seconds`
 * into step `fail_step` — the elastic-recovery scenario of DESIGN.md
 * §11 (detect via watchdog, restore a checkpoint, replan onto the
 * survivor mesh, resume).
 */
FaultScenario ChipDeath(int64_t chip = 0, int64_t fail_step = 0,
                        double fail_time_seconds = 0.0);

/**
 * The directed ring link device 0 sends on in engine direction 0 along
 * `axis` dies permanently at `fail_time_seconds` into step `fail_step`.
 */
FaultScenario LinkDeath(const Mesh& mesh, int64_t axis = 0,
                        int64_t fail_step = 0,
                        double fail_time_seconds = 0.0);

/**
 * A worn pod: mild seeded per-link degradation plus per-trial link and
 * compute jitter, for p50/p99 spread studies.
 */
FaultScenario AgingPod(uint64_t seed = 11);

/**
 * Silent data corruption in an einsum output (DESIGN.md §16): chip
 * `chip` flips the exponent MSB of one element of the einsum with
 * per-kind ordinal `instruction` at step `step`. Detectors (transfer
 * checksums + ABFT at cadence 1) are enabled so the corruption is
 * caught before the result is emitted.
 */
FaultScenario SdcCompute(int64_t chip = 0, int64_t step = 1,
                         int64_t instruction = 0);

/**
 * Silent data corruption in an in-flight collective payload: the slice
 * chip `chip` contributes to the data-exchange collective with per-kind
 * ordinal `instruction` is corrupted at step `step`; the receiver-side
 * payload checksum localizes the culprit source chip.
 */
FaultScenario SdcTransfer(int64_t chip = 0, int64_t step = 1,
                          int64_t instruction = 0);

/**
 * The undetectable variant: same injection as SdcCompute but every
 * detector disabled — the corruption escapes and propagates, which is
 * what the containment tests prove CANNOT happen when detection is on.
 */
FaultScenario SdcUndetected(int64_t chip = 0, int64_t step = 1,
                            int64_t instruction = 0);

}  // namespace overlap

#endif  // OVERLAP_MODELS_FAULT_PRESETS_H_
