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

    // Communication collectives (MPI-style, SPMD).
    kAllGather,
    kReduceScatter,
    kAllReduce,
    kAllToAll,
    kCollectivePermute,
    kCollectivePermuteStart,
    kCollectivePermuteDone,
    /// Async AllToAll pair: Start issues the exchange (occupying both
    /// direction channels of its mesh axis like the blocking form) and
    /// returns immediately; Done waits for delivery. Produced by
    /// CreateAsyncAllToAlls for micro-batch pipelined MoE overlap.
    kAllToAllStart,
    kAllToAllDone,

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
bool IsCollective(HloOpcode opcode);

/**
 * True for the collectives that move data between devices: all but
 * the Done half of an async pair, which only waits for what its Start
 * moved. The evaluator runs exactly these as a cross-device exchange,
 * and a SilentCorruption's exchange ordinal counts exactly these, in
 * program order, in both the simulator and the evaluator.
 */
bool IsExchangeOp(HloOpcode opcode);

/** True for the blocking (non-decomposed) collectives AG/RS/AR/A2A. */
bool IsBlockingCollective(HloOpcode opcode);

/** True for the Start half of an async pair (permute or all-to-all). */
bool IsAsyncStart(HloOpcode opcode);

/** True for the Done half of an async pair (permute or all-to-all). */
bool IsAsyncDone(HloOpcode opcode);

}  // namespace overlap

#endif  // OVERLAP_HLO_OPCODE_H_
