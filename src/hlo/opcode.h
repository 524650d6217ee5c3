#ifndef OVERLAP_HLO_OPCODE_H_
#define OVERLAP_HLO_OPCODE_H_

#include <cstdint>

namespace overlap {

/**
 * Operation set of the HLO-like IR.
 *
 * This is the subset of XLA HLO that intra-layer model parallelism and the
 * paper's Looped CollectiveEinsum transformation touch, plus the scalar
 * index arithmetic the decomposed loops need to compute shard IDs.
 */
enum class HloOpcode : uint8_t {
    // Graph inputs.
    kParameter,
    kConstant,
    /// The global device ID as a scalar (XLA partition-id).
    kPartitionId,
    /// The device's position within its collective subgroup along a mesh
    /// axis (attrs.mesh_axis). Derived from kPartitionId in XLA via integer
    /// arithmetic; modeled directly to keep index math exact and readable.
    kAxisIndex,

    // Elementwise arithmetic (identical operand dims, or both scalar).
    kAdd,
    kSubtract,
    kMultiply,
    kDivide,
    kMaximum,
    kMinimum,
    kNegate,
    /// Integer remainder (used for modular shard-ID arithmetic).
    kRemainder,

    // Data movement / layout.
    kBroadcast,  ///< scalar operand broadcast to attrs-free target shape
    kReshape,
    kTranspose,
    kConcatenate,
    kPad,
    kSlice,               ///< static starts+sizes
    kDynamicSlice,        ///< operands: data, one scalar start per dim
    kDynamicUpdateSlice,  ///< operands: data, update, one scalar per dim
    kCopy,

    // Dense computation.
    kEinsum,

    // Communication collectives (MPI-style, SPMD), kept contiguous for
    // the predicates below: the blocking four, the permute, the async
    // pair.
    kAllGather,
    kReduceScatter,
    kAllReduce,
    kAllToAll,
    kCollectivePermute,
    /// Async pair (§5.2): the Start issues the exchange of the collective
    /// it wraps (attrs.wrapped, one of the five above, with that
    /// collective's own attributes) and returns at once; the Done, whose
    /// one operand is its Start, waits for delivery. Printed as
    /// "<wrapped>-start" / "<wrapped>-done".
    kAsyncStart,
    kAsyncDone,

    /// Keeps several values live as one root (scalar result). Stands in
    /// for XLA's tuple in step graphs whose backward outputs have no
    /// common consumer.
    kTuple,
};

/** Returns the lowercase opcode mnemonic, e.g. "all-gather". */
const char* HloOpcodeName(HloOpcode opcode);

/** True for elementwise binary arithmetic opcodes. */
bool IsElementwiseBinary(HloOpcode opcode);

/** True for any cross-device communication opcode. */
inline bool
IsCollective(HloOpcode opcode)
{
    return opcode >= HloOpcode::kAllGather && opcode <= HloOpcode::kAsyncDone;
}

/**
 * True for the collectives that move data between devices: all but
 * the Done half of an async pair, which only waits for what its Start
 * moved. The evaluator runs exactly these as a cross-device exchange,
 * and a SilentCorruption's exchange ordinal counts exactly these, in
 * program order, in both the simulator and the evaluator.
 */
inline bool
IsExchangeOp(HloOpcode opcode)
{
    return opcode >= HloOpcode::kAllGather && opcode <= HloOpcode::kAsyncStart;
}

/** True for the blocking (non-decomposed) collectives AG/RS/AR/A2A. */
inline bool
IsBlockingCollective(HloOpcode opcode)
{
    return opcode >= HloOpcode::kAllGather && opcode <= HloOpcode::kAllToAll;
}

/** True for the Start half of an async pair. */
inline bool
IsAsyncStart(HloOpcode opcode)
{
    return opcode == HloOpcode::kAsyncStart;
}

/** True for the Done half of an async pair. */
inline bool
IsAsyncDone(HloOpcode opcode)
{
    return opcode == HloOpcode::kAsyncDone;
}

}  // namespace overlap

#endif  // OVERLAP_HLO_OPCODE_H_
