#ifndef OVERLAP_CORE_RECOVERY_STEP_PROGRAM_H_
#define OVERLAP_CORE_RECOVERY_STEP_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/overlap_compiler.h"
#include "interp/evaluator.h"
#include "support/status.h"
#include "tensor/mesh.h"
#include "tensor/tensor.h"

namespace overlap {

/**
 * The elastic training step program: the iterated map
 *
 *     X_{t+1} = (W @ X_t) / logical_rows
 *
 * with W a fixed [S, S] weight and X the [S, F] training state, both
 * sharded on dim 0 over a 1-D mesh. Per device the step is
 * einsum("ij,jk->ik", W_shard, AllGather(X_shard)) — the decomposable
 * AllGather-on-contracting-dim site of §5.2 — so the compiled step
 * exercises the full decomposed-loop machinery every iteration.
 *
 * Mesh independence (the property recovery relies on): S is the
 * *logical* row count; for a ring of n devices both tensors are
 * zero-padded to the next multiple of n. Padded rows of X stay zero
 * forever (the matching W rows are zero), and padded W columns multiply
 * zero X rows, so the logical state after any number of steps is
 * identical — up to decomposition reassociation tolerance — on every
 * mesh size. A checkpoint of the logical state taken on the full mesh
 * therefore restores exactly onto a survivor mesh with different
 * padding and shard extents.
 */
struct ElasticProgramSpec {
    /// Logical row count S of W [S,S] and X [S,F] (any value >= 1; it
    /// need not divide any mesh size).
    int64_t logical_rows = 6;
    /// Feature count F of the state X.
    int64_t feature = 4;
    uint64_t data_seed = 2026;
};

/** A compiled step program plus its sharded state on one mesh. */
struct ElasticProgram {
    ElasticProgramSpec spec;
    Mesh mesh{1};
    /// Row count after zero-padding to a multiple of the ring size.
    int64_t padded_rows = 0;
    std::unique_ptr<HloModule> module;
    CompileReport compile;
    /// Per-device shards: W [padded/n, padded], X [padded/n, feature].
    std::vector<Tensor> w_shards;
    std::vector<Tensor> x_shards;
};

/** Rows after zero-padding `logical_rows` up to a multiple of `ring`. */
int64_t PaddedRows(int64_t logical_rows, int64_t ring);

/** The seeded initial logical state X_0 [logical_rows, feature]. */
Tensor InitialElasticState(const ElasticProgramSpec& spec);

/**
 * Builds and compiles (through the guarded pipeline of `options`) the
 * step program on `mesh` (1-D, >= 2 devices), with the sharded state
 * initialized from the *logical* `state` [logical_rows, feature] —
 * InitialElasticState for a fresh run, a restored checkpoint on a
 * survivor mesh.
 */
StatusOr<ElasticProgram> BuildElasticProgram(const ElasticProgramSpec& spec,
                                             const Mesh& mesh,
                                             const CompilerOptions& options,
                                             const Tensor& state);

/**
 * Advances the functional state one step: evaluates the compiled module
 * with the SPMD interpreter and replaces the X shards with the outputs.
 * With `options.sdc` / `options.sdc_sink` set, seeded corruptions are
 * injected and detected during the advance; on a detection the evaluator
 * aborts and the X shards are left untouched, so corrupted state never
 * replaces clean state.
 */
Status AdvanceElasticState(ElasticProgram* program,
                           const EvalOptions& options = EvalOptions());

/**
 * The current *logical* state: X shards stitched back into the global
 * tensor with the padding rows stripped — the mesh-independent value
 * that CheckpointStore snapshots.
 */
StatusOr<Tensor> LogicalElasticState(const ElasticProgram& program);

}  // namespace overlap

#endif  // OVERLAP_CORE_RECOVERY_STEP_PROGRAM_H_
