#ifndef OVERLAP_CORE_OVERLAP_COMPILER_H_
#define OVERLAP_CORE_OVERLAP_COMPILER_H_

#include <functional>
#include <string>
#include <vector>

#include "hlo/module.h"
#include "passes/decompose.h"
#include "passes/fusion.h"
#include "passes/schedule.h"
#include "sim/engine.h"
#include "support/status.h"
#include "support/tracing.h"

namespace overlap {

/**
 * A pass injected into the pipeline between the overlap rewrites and
 * fusion. Used by tests (fault/rollback injection) and as an extension
 * point; injected passes run under the same post-pass verification and
 * rollback guard as the built-in ones.
 *
 * Contract: like every pipeline pass, `run` must be a deterministic
 * function of the module it is given (and of the CompilerOptions it was
 * built from). The guard rolls a failed pass back by replaying the
 * pipeline from the compile's input, so a pass ahead of a failing one
 * runs again and must produce the same module and report fields the
 * second time. It may keep side effects outside the module (counters,
 * logs), which then see one call per execution.
 */
struct InjectedPass {
    std::string name;
    std::function<Status(HloModule*)> run;
};

/**
 * End-to-end configuration of the overlap compiler: which paper features
 * are enabled and on what hardware the cost model reasons.
 */
struct CompilerOptions {
    /**
     * Master switch. When false the module is only fused and scheduled
     * in the memory-minimizing baseline order — the "original" system of
     * Figures 4/5 that every evaluation section compares against.
     */
    bool enable_overlap = true;

    DecomposeOptions decompose;
    FusionHeuristic fusion = FusionHeuristic::kOverlapAware;
    SchedulerKind scheduler = SchedulerKind::kBottomUp;
    HardwareSpec hardware;

    /**
     * Split the blocking AllToAlls that survive decomposition into
     * AllToAllStart/Done pairs (DESIGN.md §18), so the scheduler can
     * hide one micro-batch's MoE dispatch/combine exchange behind
     * another micro-batch's dense compute. Off by default: a module
     * with a single A2A per step gains nothing from the async form,
     * and the blocking form is the baseline every bench compares
     * against.
     */
    bool async_all_to_all = false;

    /**
     * Pod degradation the compiler should be robust to. A non-trivial
     * spec makes the §5.5 gate variance-aware (each site is re-costed
     * against the slowest link/chip of its ring and falls back to the
     * blocking collective or a unidirectional loop when the decomposed
     * ring no longer wins) and is forwarded to the simulator by the
     * pod runner. The default spec is fault-free and changes nothing.
     */
    FaultSpec fault;

    /** Extra passes run (guarded) after the overlap rewrites. */
    std::vector<InjectedPass> extra_passes;

    /** The paper's baseline configuration. */
    static CompilerOptions Baseline()
    {
        CompilerOptions options;
        options.enable_overlap = false;
        options.scheduler = SchedulerKind::kBaselineOnly;
        return options;
    }
};

/**
 * One guarded-pipeline incident: the named pass either returned an
 * error or produced a module the verifier rejected, and the module was
 * rolled back by replaying the pipeline without it.
 */
struct PassDiagnostic {
    std::string pass_name;
    StatusCode code = StatusCode::kOk;
    std::string error;

    std::string ToString() const;
};

/** What the compilation pipeline did to a module. */
struct CompileReport {
    DecomposeStats decompose;
    int64_t async_permutes = 0;
    /// Blocking AllToAlls split into Start/Done pairs (§18).
    int64_t async_all_to_alls = 0;
    int64_t fusion_groups = 0;
    /// §5.4.3 Concatenate -> Max(Pad, Pad) rewrites applied.
    int64_t concat_rewrites = 0;
    /// Guarded-pipeline incidents (empty on a clean compile).
    std::vector<PassDiagnostic> pass_diagnostics;
    /// Per-pass wall time and instruction delta, in execution order
    /// with offsets relative to the start of Compile() — the compiler
    /// lane of the unified Chrome trace (DESIGN.md §13). After a
    /// rollback it lists the failed run and every replayed one too.
    /// Always populated; the cost is one clock read per pass.
    std::vector<PassTiming> pass_timings;
};

/**
 * The paper's compiler pipeline (§5): CollectiveEinsum decomposition →
 * asynchronous CollectivePermute creation → overlap-aware fusion →
 * overlap scheduling. Mutates `module` in place and attaches the final
 * schedule; the module stays functionally equivalent throughout (the
 * property the test suite checks with the SPMD interpreter).
 *
 * Every pass runs under a verification guard: the module is verified
 * after each pass, and a pass that errors or emits invalid HLO is
 * rolled back (the verified input, cloned once on entry, is restored
 * and the pipeline replayed without it) and reported in
 * CompileReport::pass_diagnostics rather than poisoning downstream
 * passes or the simulator.
 */
class OverlapCompiler {
  public:
    explicit OverlapCompiler(CompilerOptions options)
        : options_(std::move(options)) {}

    const CompilerOptions& options() const { return options_; }

    StatusOr<CompileReport> Compile(HloModule* module) const;

  private:
    CompilerOptions options_;
};

}  // namespace overlap

#endif  // OVERLAP_CORE_OVERLAP_COMPILER_H_
