#ifndef OVERLAP_PASSES_ASYNC_H_
#define OVERLAP_PASSES_ASYNC_H_

#include "hlo/computation.h"
#include "support/status.h"

namespace overlap {

/**
 * Splits every synchronous `kind` collective into an async Start / Done
 * pair that wraps it (§5.2). The Start carries the collective's
 * attributes and issues the exchange without blocking; the Done waits
 * for delivery.
 *
 * Decoupling this from the decomposition keeps the loop generation
 * modular (§5.1): the decomposer emits ordinary blocking permutes, this
 * pass (with `kind` = kCollectivePermute) makes them non-blocking, and
 * the schedulers then move Starts early and Dones late to expose the
 * overlap. With `kind` = kAllToAll it splits the blocking AllToAlls that
 * survive decomposition (DESIGN.md §18), which lets one micro-batch's
 * dispatch/combine exchange hide behind another micro-batch's dense
 * compute in the MoE pipelined schedule.
 *
 * @return the number of collectives converted.
 */
StatusOr<int64_t> CreateAsyncPairs(HloComputation* computation,
                                   HloOpcode kind);

}  // namespace overlap

#endif  // OVERLAP_PASSES_ASYNC_H_
