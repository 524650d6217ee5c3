#include "hlo/computation.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <queue>

#include "support/strings.h"

namespace overlap {

HloInstruction*
HloComputation::AddInstruction(HloOpcode opcode, Shape shape,
                               std::vector<HloInstruction*> operands,
                               InstrAttrs attrs)
{
    auto instr = std::make_unique<HloInstruction>(
        next_id_++, opcode, std::move(shape), std::move(operands),
        std::move(attrs));
    HloInstruction* raw = instr.get();
    for (HloInstruction* operand : raw->operands()) {
        OVERLAP_CHECK(operand != nullptr);
        operand->AddUser(raw);
    }
    instructions_.push_back(std::move(instr));
    if (root_ == nullptr) root_ = raw;
    return raw;
}

std::unique_ptr<HloComputation>
HloComputation::Clone() const
{
    auto clone = std::make_unique<HloComputation>(name_);
    // Old -> new by instruction id: every id is below next_id_, because
    // builders, the parser and Clone itself all allocate through it.
    std::vector<HloInstruction*> map(static_cast<size_t>(next_id_), nullptr);
    auto mapped = [&map](const HloInstruction* instr) {
        return map[static_cast<size_t>(instr->id())];
    };
    clone->instructions_.reserve(instructions_.size());
    for (const auto& instr : instructions_) {
        OVERLAP_CHECK(instr->id() < next_id_);
        std::vector<HloInstruction*> operands;
        operands.reserve(instr->operands().size());
        for (const HloInstruction* operand : instr->operands()) {
            operands.push_back(mapped(operand));
            OVERLAP_CHECK(operands.back() != nullptr);  // topological
        }
        auto copy = std::make_unique<HloInstruction>(
            instr->id(), instr->opcode(), instr->shape(),
            std::move(operands), instr->attrs(), instr->name());
        copy->fusion_group_ = instr->fusion_group_;
        copy->loop_group_ = instr->loop_group_;
        copy->sharding_ = instr->sharding_;
        copy->parsed_einsum_ = std::atomic_load_explicit(
            &instr->parsed_einsum_, std::memory_order_acquire);
        map[static_cast<size_t>(instr->id())] = copy.get();
        clone->instructions_.push_back(std::move(copy));
    }
    // Users are copied in the original's order (not rebuilt from the
    // operand edges), so a pass that walks users sees the same sequence
    // on the clone as on the original.
    for (size_t i = 0; i < instructions_.size(); ++i) {
        const std::vector<HloInstruction*>& users = instructions_[i]->users_;
        std::vector<HloInstruction*>& copy_users =
            clone->instructions_[i]->users_;
        copy_users.reserve(users.size());
        for (const HloInstruction* user : users) {
            copy_users.push_back(mapped(user));
        }
    }
    clone->root_ = root_ != nullptr ? mapped(root_) : nullptr;
    clone->schedule_.reserve(schedule_.size());
    for (const HloInstruction* instr : schedule_) {
        clone->schedule_.push_back(mapped(instr));
    }
    clone->next_id_ = next_id_;
    clone->next_loop_group_ = next_loop_group_;
    clone->next_fusion_group_ = next_fusion_group_;
    return clone;
}

std::vector<HloInstruction*>
HloComputation::instructions() const
{
    std::vector<HloInstruction*> out;
    out.reserve(instructions_.size());
    for (const auto& instr : instructions_) out.push_back(instr.get());
    return out;
}

std::vector<HloInstruction*>
HloComputation::parameters() const
{
    std::vector<HloInstruction*> params;
    for (const auto& instr : instructions_) {
        if (instr->opcode() == HloOpcode::kParameter) {
            params.push_back(instr.get());
        }
    }
    std::sort(params.begin(), params.end(),
              [](const HloInstruction* a, const HloInstruction* b) {
                  return a->attrs().parameter_number <
                         b->attrs().parameter_number;
              });
    return params;
}

void
HloComputation::ReplaceAllUsesWith(HloInstruction* old_instr,
                                   HloInstruction* new_instr)
{
    OVERLAP_CHECK(old_instr != new_instr);
    // Copy: ReplaceOperand mutates the user list we are iterating.
    std::vector<HloInstruction*> users = old_instr->users();
    for (HloInstruction* user : users) {
        for (int64_t i = 0; i < user->operand_count(); ++i) {
            if (user->operand(i) == old_instr) {
                user->ReplaceOperand(i, new_instr);
            }
        }
    }
    if (root_ == old_instr) root_ = new_instr;
}

int64_t
HloComputation::RemoveDeadInstructions()
{
    OVERLAP_CHECK(root_ != nullptr);
    // Liveness by instruction id (every id is below next_id_).
    std::vector<bool> live_ids(static_cast<size_t>(next_id_), false);
    auto live = [&live_ids](const HloInstruction* instr) {
        return live_ids[static_cast<size_t>(instr->id())];
    };
    std::vector<HloInstruction*> stack{root_};
    while (!stack.empty()) {
        HloInstruction* instr = stack.back();
        stack.pop_back();
        if (live(instr)) continue;
        live_ids[static_cast<size_t>(instr->id())] = true;
        for (HloInstruction* operand : instr->operands()) {
            stack.push_back(operand);
        }
    }
    for (const auto& instr : instructions_) {
        if (instr->opcode() == HloOpcode::kParameter) {
            live_ids[static_cast<size_t>(instr->id())] = true;
        }
    }
    int64_t removed = 0;
    // Detach user edges of dying instructions first.
    for (const auto& instr : instructions_) {
        if (live(instr.get())) continue;
        for (HloInstruction* operand : instr->operands()) {
            operand->RemoveUser(instr.get());
        }
        ++removed;
    }
    if (removed == 0) return 0;
    instructions_.erase(
        std::remove_if(instructions_.begin(), instructions_.end(),
                       [&live](const std::unique_ptr<HloInstruction>& i) {
                           return !live(i.get());
                       }),
        instructions_.end());
    if (!schedule_.empty()) {
        schedule_.erase(std::remove_if(schedule_.begin(), schedule_.end(),
                                       [&live](const HloInstruction* i) {
                                           return !live(i);
                                       }),
                        schedule_.end());
    }
    return removed;
}

void
HloComputation::SortTopologically()
{
    // Kahn's algorithm with a min-heap on the original list position, so
    // the result deviates from the existing order only where required.
    // Per-instruction state is indexed by id (every id is below next_id_).
    const size_t count = instructions_.size();
    std::vector<int64_t> position(static_cast<size_t>(next_id_), -1);
    std::vector<int64_t> missing_operands(static_cast<size_t>(next_id_), 0);
    std::priority_queue<int64_t, std::vector<int64_t>, std::greater<>> ready;
    for (size_t i = 0; i < count; ++i) {
        const HloInstruction* instr = instructions_[i].get();
        position[static_cast<size_t>(instr->id())] = static_cast<int64_t>(i);
        // Count each distinct operand once: an operand read through
        // several slots lists this instruction once among its users.
        const std::vector<HloInstruction*>& operands = instr->operands();
        int64_t distinct = 0;
        for (auto it = operands.begin(); it != operands.end(); ++it) {
            if (std::find(operands.begin(), it, *it) == it) ++distinct;
        }
        missing_operands[static_cast<size_t>(instr->id())] = distinct;
        if (distinct == 0) ready.push(static_cast<int64_t>(i));
    }
    std::vector<std::unique_ptr<HloInstruction>> sorted;
    sorted.reserve(count);
    while (!ready.empty()) {
        std::unique_ptr<HloInstruction>& slot =
            instructions_[static_cast<size_t>(ready.top())];
        ready.pop();
        for (const HloInstruction* user : slot->users()) {
            if (--missing_operands[static_cast<size_t>(user->id())] == 0) {
                ready.push(position[static_cast<size_t>(user->id())]);
            }
        }
        sorted.push_back(std::move(slot));
    }
    OVERLAP_CHECK(sorted.size() == count);
    // A dependence cycle (a caller's bug) would leave instructions
    // behind; keep them, in their old order, for the verifier to report.
    for (std::unique_ptr<HloInstruction>& slot : instructions_) {
        if (slot != nullptr) sorted.push_back(std::move(slot));
    }
    instructions_ = std::move(sorted);
    schedule_.clear();
}

void
HloComputation::set_schedule(std::vector<HloInstruction*> schedule)
{
    OVERLAP_CHECK(schedule.size() == instructions_.size());
    schedule_ = std::move(schedule);
}

std::vector<HloInstruction*>
HloComputation::sequence() const
{
    if (!schedule_.empty()) return schedule_;
    return instructions();
}

int64_t
HloComputation::NextChannelId() const
{
    int64_t next = 0;
    for (const auto& instr : instructions_) {
        next = std::max(next, instr->attrs().channel_id + 1);
    }
    return next;
}

std::string
HloComputation::ToString() const
{
    std::string out = StrCat("computation ", name_, " {\n");
    for (const auto& instr : instructions_) {
        out += "  ";
        if (instr.get() == root_) out += "ROOT ";
        out += instr->ToString();
        out += "\n";
    }
    out += "}\n";
    return out;
}

}  // namespace overlap
