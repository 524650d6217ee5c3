#ifndef OVERLAP_HLO_VERIFIER_H_
#define OVERLAP_HLO_VERIFIER_H_

#include "hlo/module.h"
#include "support/status.h"

namespace overlap {

/**
 * Structural and semantic validation of an HloModule.
 *
 * Checks performed:
 *  - every instruction's shape matches shape inference;
 *  - parameter numbers are unique and dense from 0;
 *  - operand/user edges are consistent;
 *  - collective groups partition the device set (when a mesh is present)
 *    and CollectivePermute source/target pairs have unique sources and
 *    unique targets within range;
 *  - each CollectivePermuteStart has exactly one Done user;
 *  - an attached schedule is a permutation of the instruction list and a
 *    valid topological order.
 *
 * Cost is linear in the instructions, their groups and the distinct
 * permute pair lists (a list shared by many permutes is checked once),
 * and does not grow with the mesh beyond one mark array per device list
 * kind.
 */
Status VerifyModule(const HloModule& module);

/**
 * Verifies one computation. Collectives are checked against a mesh of
 * `num_devices` devices; with none (`num_devices <= 0`) the checks that
 * need the device count (upper range bound, groups covering the mesh)
 * are skipped.
 */
Status VerifyComputation(const HloComputation& computation,
                         int64_t num_devices = -1);

/**
 * Verifies only `computation`'s attached schedule, if any: it has one
 * entry per instruction, repeats none, and places every instruction
 * after its operands. The schedule-tail of VerifyComputation.
 */
Status VerifySchedule(const HloComputation& computation);

}  // namespace overlap

#endif  // OVERLAP_HLO_VERIFIER_H_
