#include "hlo/opcode.h"

namespace overlap {

const char*
HloOpcodeName(HloOpcode opcode)
{
    switch (opcode) {
      case HloOpcode::kParameter: return "parameter";
      case HloOpcode::kConstant: return "constant";
      case HloOpcode::kPartitionId: return "partition-id";
      case HloOpcode::kAxisIndex: return "axis-index";
      case HloOpcode::kAdd: return "add";
      case HloOpcode::kSubtract: return "subtract";
      case HloOpcode::kMultiply: return "multiply";
      case HloOpcode::kDivide: return "divide";
      case HloOpcode::kMaximum: return "maximum";
      case HloOpcode::kMinimum: return "minimum";
      case HloOpcode::kNegate: return "negate";
      case HloOpcode::kRemainder: return "remainder";
      case HloOpcode::kBroadcast: return "broadcast";
      case HloOpcode::kReshape: return "reshape";
      case HloOpcode::kTranspose: return "transpose";
      case HloOpcode::kConcatenate: return "concatenate";
      case HloOpcode::kPad: return "pad";
      case HloOpcode::kSlice: return "slice";
      case HloOpcode::kDynamicSlice: return "dynamic-slice";
      case HloOpcode::kDynamicUpdateSlice: return "dynamic-update-slice";
      case HloOpcode::kCopy: return "copy";
      case HloOpcode::kEinsum: return "einsum";
      case HloOpcode::kAllGather: return "all-gather";
      case HloOpcode::kReduceScatter: return "reduce-scatter";
      case HloOpcode::kAllReduce: return "all-reduce";
      case HloOpcode::kAllToAll: return "all-to-all";
      case HloOpcode::kCollectivePermute: return "collective-permute";
      case HloOpcode::kAsyncStart: return "async-start";
      case HloOpcode::kAsyncDone: return "async-done";
      case HloOpcode::kTuple: return "tuple";
    }
    return "unknown";
}

bool
IsElementwiseBinary(HloOpcode opcode)
{
    switch (opcode) {
      case HloOpcode::kAdd:
      case HloOpcode::kSubtract:
      case HloOpcode::kMultiply:
      case HloOpcode::kDivide:
      case HloOpcode::kMaximum:
      case HloOpcode::kMinimum:
      case HloOpcode::kRemainder:
          return true;
      default:
          return false;
    }
}

}  // namespace overlap
