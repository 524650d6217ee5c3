#include "passes/fusion.h"

namespace overlap {
namespace {

bool
IsFusableCombiner(const HloInstruction* instr)
{
    switch (instr->opcode()) {
      case HloOpcode::kAdd:
      case HloOpcode::kMaximum:
      case HloOpcode::kDynamicUpdateSlice:
          return instr->shape().rank() > 0;
      default:
          return false;
    }
}

}  // namespace

bool
DependsOnAsyncDone(const HloInstruction* instr)
{
    for (const HloInstruction* operand : instr->operands()) {
        if (IsAsyncDone(operand->opcode())) return true;
    }
    return false;
}

StatusOr<int64_t>
RunFusionPass(HloComputation* computation, FusionHeuristic heuristic)
{
    int64_t groups_formed = 0;
    for (HloInstruction* instr : computation->instructions()) {
        if (!IsFusableCombiner(instr)) continue;
        if (instr->fusion_group() >= 0) continue;

        // Fusable producers: einsums whose only consumer is this combiner.
        std::vector<HloInstruction*> producers;
        for (HloInstruction* operand : instr->operands()) {
            if (operand->opcode() == HloOpcode::kEinsum &&
                operand->users().size() == 1) {
                producers.push_back(operand);
            }
        }
        if (producers.empty()) continue;

        HloInstruction* chosen = nullptr;
        switch (heuristic) {
          case FusionHeuristic::kDefault:
              // Greedy: the first einsum producer in operand order, even
              // when that chains the fused kernel behind an in-flight
              // permute (Figure 11 (a)).
              chosen = producers.front();
              break;
          case FusionHeuristic::kOverlapAware: {
              // Prefer the producer that already consumes the async
              // Done; if the combiner itself reads a Done and no
              // producer does, fusing would create the bad dependence —
              // leave the combiner unfused and pay the extra memory
              // accesses instead (Figure 11 (b)).
              for (HloInstruction* producer : producers) {
                  if (DependsOnAsyncDone(producer)) {
                      chosen = producer;
                      break;
                  }
              }
              if (chosen == nullptr) {
                  if (DependsOnAsyncDone(instr)) {
                      chosen = nullptr;  // stay unfused
                  } else {
                      chosen = producers.front();
                  }
              }
              break;
          }
        }
        if (chosen == nullptr) continue;

        if (chosen->fusion_group() >= 0) {
            instr->set_fusion_group(chosen->fusion_group());
        } else {
            int64_t group = computation->NextFusionGroupId();
            chosen->set_fusion_group(group);
            instr->set_fusion_group(group);
            ++groups_formed;
        }
    }
    return groups_formed;
}

}  // namespace overlap
