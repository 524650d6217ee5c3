#ifndef OVERLAP_INTERP_EVALUATOR_H_
#define OVERLAP_INTERP_EVALUATOR_H_

#include <mutex>
#include <optional>
#include <vector>

#include "hlo/module.h"
#include "support/status.h"
#include "tensor/checksum.h"
#include "tensor/mesh.h"
#include "tensor/tensor.h"

namespace overlap {

/**
 * Silent-data-corruption injection + detection for one evaluation (one
 * pod step; see DESIGN.md §16). `corruptions` holds the entries live at
 * `step` — only entries whose step matches are applied (earlier
 * corruptions that escaped detection already live in the caller's state).
 * Instruction targets are per-kind ordinals in program order: the i-th
 * einsum / the i-th data-exchange collective of the entry computation.
 */
struct SdcEvalConfig {
    std::vector<SilentCorruption> corruptions;
    SdcDetectorConfig detectors;
    int64_t step = 0;
};

/**
 * Thread-safe sink for detection events raised during one evaluation
 * (one sink may be shared by evaluations running on several threads).
 * The walk stops at the first detection, so an evaluation deposits at
 * most one report; Primary() is the earliest in (program index, device)
 * order.
 */
class SdcEvalSink {
  public:
    void Add(const CorruptionReport& report);
    void Clear();
    bool detected() const;
    std::vector<CorruptionReport> reports() const;
    std::optional<CorruptionReport> Primary() const;

  private:
    mutable std::mutex mu_;
    std::vector<CorruptionReport> reports_;
};

/** Execution knobs for the SPMD evaluator. */
struct EvalOptions {
    /**
     * When set, seeded corruptions are injected during evaluation and
     * the configured detectors (transfer checksums, einsum ABFT) run in
     * line. A detection aborts the evaluation with FailedPrecondition —
     * corrupted values are contained, never returned — and deposits a
     * CorruptionReport in `sdc_sink` (when provided). Both pointers must
     * outlive the evaluation.
     */
    const SdcEvalConfig* sdc = nullptr;
    SdcEvalSink* sdc_sink = nullptr;
};

/**
 * Functional reference interpreter for SPMD HLO programs.
 *
 * Executes the entry computation on every device of the mesh with full
 * collective semantics: AllGather concatenation in group order,
 * ReduceScatter element-wise reduction + scatter, AllReduce, AllToAll,
 * and CollectivePermute data movement (devices that receive nothing get
 * zeros, matching XLA). An async Start performs the data movement of
 * the collective it wraps and its Done is the identity, so the async
 * pair behaves exactly like the sync op — their timing behaviour lives
 * in the simulator. Source-target pairs with a duplicate source or target, or
 * with a device id outside the mesh, are rejected as invalid.
 *
 * Execution is a serial lock-step walk — one instruction at a time
 * across all devices — over a *compiled* form of the program: operand
 * slots, liveness and fused elementwise groups resolved once up front
 * (DESIGN.md §17). Dead intermediate buffers are recycled through the
 * thread-local BufferPool, so a decomposed loop's partial einsums and
 * DynamicUpdateSlice chain reuse allocations across iterations. One
 * evaluator may be used from several threads at once; parallelism is
 * per evaluation (whole difftest cases on a ThreadPool), never within
 * one.
 *
 * This interpreter is the semantic ground truth the test suite uses to
 * prove that the Looped CollectiveEinsum decomposition (in every variant)
 * is equivalent to the original collective + einsum pair.
 */
class SpmdEvaluator {
  public:
    explicit SpmdEvaluator(Mesh mesh) : mesh_(std::move(mesh)) {}
    SpmdEvaluator(Mesh mesh, EvalOptions options)
        : mesh_(std::move(mesh)), options_(options) {}

    /**
     * Runs `computation`; `params[p][d]` is the value of parameter p on
     * device d (the inner vector must have one entry per device, or
     * exactly one entry meaning "replicated").
     *
     * @return the root value on each device.
     */
    StatusOr<std::vector<Tensor>> Evaluate(
        const HloComputation& computation,
        const std::vector<std::vector<Tensor>>& params) const;

    /**
     * Evaluates several computations against the *same* parameter
     * bindings — the shape of a differential test (one reference, many
     * transformed variants). Returns one per-device output vector per
     * computation, in order; fails fast on the first evaluation error.
     */
    StatusOr<std::vector<std::vector<Tensor>>> EvaluateBatch(
        const std::vector<const HloComputation*>& computations,
        const std::vector<std::vector<Tensor>>& params) const;

    const Mesh& mesh() const { return mesh_; }
    const EvalOptions& options() const { return options_; }

  private:
    Mesh mesh_;
    EvalOptions options_;
};

/**
 * Convenience: evaluates a single-device (global) computation with one
 * value per parameter.
 */
StatusOr<Tensor> EvaluateGlobal(const HloComputation& computation,
                                const std::vector<Tensor>& params);

/**
 * Wall-clock seconds an evaluation spent in its two hot phases, for
 * perfbench's per-phase breakdown (allocation time is accounted
 * separately by the buffer pool; see SetAllocTimingEnabled).
 */
struct EvalPhaseSeconds {
    /// Time inside einsum kernel evaluation (all devices summed).
    double einsum_seconds = 0;
    /// Time in collective exchanges (all devices at once).
    double collective_seconds = 0;
};

/**
 * Turns per-phase wall-clock accounting on. Off by default: the timers
 * read the clock in the evaluator hot path, so only perfbench's traced
 * run enables them (`interp.einsum_s`, `interp.collective_s`).
 */
void SetEvalPhaseTimingEnabled(bool enabled);

/** Returns the seconds accumulated since the last call, and resets. */
EvalPhaseSeconds ConsumeEvalPhaseSeconds();

}  // namespace overlap

#endif  // OVERLAP_INTERP_EVALUATOR_H_
