#include "passes/async.h"

#include "hlo/builder.h"

namespace overlap {

StatusOr<int64_t>
CreateAsyncPairs(HloComputation* computation, HloOpcode kind)
{
    HloBuilder builder(computation);
    int64_t converted = 0;
    int64_t next_channel = computation->NextChannelId();
    for (HloInstruction* instr : computation->instructions()) {
        if (instr->opcode() != kind) continue;
        // The Start takes the collective's attributes whole (a
        // ring-decomposed-A2A chunk permute keeps its chunk tag), and
        // each pair gets its own channel: the sync op's when it had one.
        InstrAttrs attrs = instr->attrs();
        if (attrs.channel_id < 0) attrs.channel_id = next_channel++;
        HloInstruction* start =
            builder.AsyncStart(kind, instr->operand(0), std::move(attrs));
        HloInstruction* done = builder.AsyncDone(start);
        start->set_loop_group(instr->loop_group());
        done->set_loop_group(instr->loop_group());
        start->set_fusion_group(instr->fusion_group());
        done->set_fusion_group(instr->fusion_group());
        computation->ReplaceAllUsesWith(instr, done);
        ++converted;
    }
    if (converted > 0) {
        computation->RemoveDeadInstructions();
        computation->SortTopologically();
    }
    return converted;
}

}  // namespace overlap
