#ifndef OVERLAP_TENSOR_CHECKSUM_H_
#define OVERLAP_TENSOR_CHECKSUM_H_

#include <cstdint>
#include <string>

#include "support/status.h"
#include "tensor/einsum.h"
#include "tensor/tensor.h"

namespace overlap {

/**
 * Silent-data-corruption (SDC) primitives shared by the fault model, the
 * evaluator and the simulator (DESIGN.md §16).
 *
 * The fault model *specifies* seeded corruptions (SilentCorruption); the
 * evaluator *applies* them to real tensor data and runs the detectors; the
 * simulator *models* their detection latency and the detector time. All
 * three layers agree on the same ordinal scheme: instruction targets are
 * named by their per-kind ordinal in program order (the i-th einsum, the
 * i-th data-exchange collective of the entry computation), which is stable
 * across evaluator and simulator.
 */

/** Where a corruption strikes. */
enum class CorruptionTarget : uint8_t {
    kEinsumOutput = 0,    ///< one element of an einsum's output shard
    kTransferPayload = 1, ///< one element of an in-flight collective payload
};

/** How the struck element is corrupted. */
enum class CorruptionKind : uint8_t {
    kBitFlip = 0,            ///< XOR one bit of the f32 bit pattern
    kValuePerturbation = 1,  ///< add a bounded constant to the value
};

const char* CorruptionTargetName(CorruptionTarget target);
const char* CorruptionKindName(CorruptionKind kind);

/**
 * One seeded silent corruption: at `step`, on `chip`, in the output (or
 * outgoing payload) of the instruction with per-kind ordinal `instruction`,
 * flip `bit` of (or add `magnitude` to) flat element `element` (taken
 * modulo the tensor's element count at application time).
 *
 * Default bit 30 (the exponent MSB of f32): for any finite value v, the
 * flipped value differs from v by at least 2.0 (v == 0 maps to exactly 2.0;
 * |v| in (0, 2) scales up by 2^64; |v| >= 2 scales down, losing at least
 * half its magnitude) — always far above the ABFT tolerance on the tensor
 * sizes the detectors guard, so detection is deterministic, never
 * borderline with f32 reassociation noise.
 */
struct SilentCorruption {
    int64_t step = 0;
    int64_t chip = 0;
    int64_t instruction = 0;
    CorruptionTarget target = CorruptionTarget::kEinsumOutput;
    CorruptionKind kind = CorruptionKind::kBitFlip;
    int64_t element = 0;
    int64_t bit = 30;
    double magnitude = 1.0e3;

    std::string ToString() const;
};

/** Which detector fired. */
enum class CorruptionDetector : uint8_t {
    kNone = 0,
    kTransferChecksum = 1,   ///< sender/receiver payload checksum mismatch
    kEinsumAbft = 2,         ///< ABFT checksum-row residual over tolerance
    kCheckpointChecksum = 3, ///< stored-state checksum mismatch on restore
};

const char* CorruptionDetectorName(CorruptionDetector detector);

/**
 * A detection event: at `step`, detector `detector` localized corruption to
 * `chip` at per-kind ordinal `instruction`. `injected_step` names the step
 * of the matched injection (== step unless the corruption escaped earlier
 * checks), so the recovery layer can consume the right fault entry before
 * replay. `residual` carries the ABFT residual magnitude when applicable.
 */
struct CorruptionReport {
    int64_t step = 0;
    int64_t chip = -1;
    int64_t instruction = -1;
    CorruptionDetector detector = CorruptionDetector::kNone;
    int64_t injected_step = 0;
    double residual = 0.0;
    /// Program-order instruction index within the evaluated computation
    /// (-1 when the report comes from the simulator). Orders reports the
    /// same way the serial evaluator encounters them.
    int64_t program_index = -1;

    std::string ToString() const;
};

/**
 * Detector configuration. Detection is opt-in (`enabled`) so existing
 * simulations, traces and benches are bit-for-bit unchanged when SDC
 * checking is off.
 *
 * `einsum_check_cadence` checks every Nth einsum, counted *across* steps
 * (global counter = step * einsums_per_step + ordinal), so cadence > 1
 * yields genuine multi-step detection latency rather than re-checking
 * ordinal 0 every step.
 */
struct SdcDetectorConfig {
    bool enabled = false;
    bool verify_transfers = true;
    bool verify_einsums = true;
    int64_t einsum_check_cadence = 1;
    double abft_relative_tolerance = 1e-4;

    bool active() const {
        return enabled && (verify_transfers || verify_einsums);
    }
};

/**
 * True if the einsum with per-step ordinal `einsum_ordinal` is ABFT-checked
 * at `step` under the given cadence. Shared by the evaluator (data-level
 * check) and the simulator (timing-level check) so both agree on which
 * contractions are verified.
 */
bool AbftChecked(int64_t step, int64_t einsum_ordinal,
                 int64_t einsums_per_step, int64_t cadence);

/**
 * FNV-1a 64-bit checksum over the raw f32 bit patterns. Exact: any bit
 * difference in the payload changes the checksum, and bit-identical
 * payloads always agree — the transfer detector has zero false positives
 * by construction.
 */
uint64_t PayloadChecksum(const float* data, int64_t count);
uint64_t PayloadChecksum(const Tensor& t);

/**
 * Same FNV-1a over a raw byte buffer — the checkpoint store's integrity
 * checksum (CorruptionDetector::kCheckpointChecksum).
 */
uint64_t BytesChecksum(const uint8_t* data, size_t count);

/** Applies `c` to one element of `t` in place (element taken mod size). */
void ApplyCorruption(const SilentCorruption& c, Tensor* t);

/** Result of one ABFT einsum verification. */
struct AbftCheckResult {
    bool ok = true;
    double max_residual = 0.0;
    double tolerance = 0.0;
};

/**
 * ABFT checksum-row verification of `out` == einsum(spec, lhs, rhs).
 *
 * Sums lhs and out over the lhs-free labels (falling back to the rhs-free
 * labels, or a full recompute for pure batch/contraction specs) and checks
 * the reduced contraction: sum_m C[b,m,n] == sum_k (sum_m A[b,m,k]) *
 * B[b,k,n]. Cost O(MK + KN + MN) against the einsum's O(MKN). The
 * per-element tolerance scales with the sum of absolute term magnitudes
 * (computed via the same reduced contraction on |A|, |B|), keeping it
 * orders of magnitude above f32 reassociation noise while far below the
 * minimum bit-30-flip delta on detector-guarded tensor sizes.
 */
StatusOr<AbftCheckResult> AbftVerifyEinsum(const EinsumSpec& spec,
                                           const Tensor& lhs,
                                           const Tensor& rhs,
                                           const Tensor& out,
                                           double relative_tolerance);

}  // namespace overlap

#endif  // OVERLAP_TENSOR_CHECKSUM_H_
