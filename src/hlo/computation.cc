#include "hlo/computation.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>

#include "support/strings.h"

namespace overlap {
namespace {

/**
 * Instruction block capacities: the first block holds kFirstBlock, each
 * next one twice the last, up to kMaxBlock. A ten-instruction module
 * takes one small block; a layer step takes ~64-instruction blocks.
 */
constexpr size_t kFirstBlock = 8;
constexpr size_t kMaxBlock = 64;

}  // namespace

HloComputation::~HloComputation()
{
    std::allocator<HloInstruction> allocator;
    for (const Block& block : blocks_) {
        std::destroy_n(block.storage, block.used);
        allocator.deallocate(block.storage, block.capacity);
    }
}

template <typename... Args>
HloInstruction*
HloComputation::NewInstruction(Args&&... args)
{
    if (blocks_.empty() || blocks_.back().used == blocks_.back().capacity) {
        const size_t capacity =
            blocks_.empty() ? kFirstBlock
                            : std::min(2 * blocks_.back().capacity, kMaxBlock);
        blocks_.push_back(
            {std::allocator<HloInstruction>().allocate(capacity), capacity,
             0});
    }
    Block& block = blocks_.back();
    HloInstruction* instr = std::construct_at(block.storage + block.used,
                                              std::forward<Args>(args)...);
    ++block.used;
    return instr;
}

HloInstruction*
HloComputation::AddInstruction(HloOpcode opcode, Shape shape,
                               std::vector<HloInstruction*> operands,
                               InstrAttrs attrs)
{
    HloInstruction* instr =
        NewInstruction(next_id_++, opcode, std::move(shape),
                       std::move(operands), std::move(attrs));
    // The new instruction is no one's user yet, so it joins each distinct
    // operand's user list once: an operand read through an earlier slot
    // already lists it last.
    for (HloInstruction* operand : instr->operands()) {
        OVERLAP_CHECK(operand != nullptr);
        std::vector<HloInstruction*>& users = operand->users_;
        if (users.empty() || users.back() != instr) users.push_back(instr);
    }
    instructions_.push_back(instr);
    if (root_ == nullptr) root_ = instr;
    return instr;
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
    for (const HloInstruction* instr : instructions_) {
        OVERLAP_CHECK(instr->id() < next_id_);
        std::vector<HloInstruction*> operands;
        operands.reserve(instr->operands().size());
        for (const HloInstruction* operand : instr->operands()) {
            operands.push_back(mapped(operand));
            OVERLAP_CHECK(operands.back() != nullptr);  // topological
        }
        HloInstruction* copy = clone->NewInstruction(
            instr->id(), instr->opcode(), instr->shape(),
            std::move(operands), instr->attrs(), instr->name());
        copy->fusion_group_ = instr->fusion_group_;
        copy->loop_group_ = instr->loop_group_;
        copy->sharding_ = instr->sharding_;
        // The owner is only written before the cache is published, so
        // it is safe to copy once the cache reads non-null.
        if (const EinsumSpec* cached =
                instr->einsum_cache_.load(std::memory_order_acquire)) {
            copy->parsed_einsum_ = instr->parsed_einsum_;
            copy->einsum_cache_.store(cached, std::memory_order_relaxed);
        }
        map[static_cast<size_t>(instr->id())] = copy;
        clone->instructions_.push_back(copy);
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
    return instructions_;
}

std::vector<HloInstruction*>
HloComputation::parameters() const
{
    std::vector<HloInstruction*> params;
    for (HloInstruction* instr : instructions_) {
        if (instr->opcode() == HloOpcode::kParameter) {
            params.push_back(instr);
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
    for (const HloInstruction* instr : instructions_) {
        if (instr->opcode() == HloOpcode::kParameter) {
            live_ids[static_cast<size_t>(instr->id())] = true;
        }
    }
    int64_t removed = 0;
    // Detach user edges of dying instructions first. Their storage stays
    // in its block until the computation is destroyed.
    for (HloInstruction* instr : instructions_) {
        if (live(instr)) continue;
        for (HloInstruction* operand : instr->operands()) {
            operand->RemoveUser(instr);
        }
        ++removed;
    }
    if (removed == 0) return 0;
    instructions_.erase(
        std::remove_if(instructions_.begin(), instructions_.end(),
                       [&live](const HloInstruction* i) { return !live(i); }),
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
    // Kahn's algorithm that always takes the ready instruction earliest
    // in the original list, so the result deviates from the existing
    // order only where required. The ready set is a bitset over list
    // positions: its lowest set bit is what a min-heap on position would
    // pop. Every set bit is at or past word `low`; a user that becomes
    // ready earlier in the list than the instruction just taken moves
    // `low` back. Per-instruction state is indexed by id (every id is
    // below next_id_).
    const size_t count = instructions_.size();
    std::vector<size_t> position(static_cast<size_t>(next_id_), 0);
    std::vector<int64_t> missing_operands(static_cast<size_t>(next_id_), 0);
    std::vector<uint64_t> ready((count + 63) / 64, 0);
    size_t ready_count = 0;
    auto make_ready = [&ready, &ready_count](size_t pos) {
        ready[pos / 64] |= uint64_t{1} << (pos % 64);
        ++ready_count;
    };
    for (size_t i = 0; i < count; ++i) {
        const HloInstruction* instr = instructions_[i];
        position[static_cast<size_t>(instr->id())] = i;
        // Count each distinct operand once: an operand read through
        // several slots lists this instruction once among its users.
        const std::vector<HloInstruction*>& operands = instr->operands();
        int64_t distinct = 0;
        for (auto it = operands.begin(); it != operands.end(); ++it) {
            if (std::find(operands.begin(), it, *it) == it) ++distinct;
        }
        missing_operands[static_cast<size_t>(instr->id())] = distinct;
        if (distinct == 0) make_ready(i);
    }
    std::vector<HloInstruction*> sorted;
    sorted.reserve(count);
    size_t low = 0;
    while (ready_count > 0) {
        while (ready[low] == 0) ++low;
        const size_t pos =
            low * 64 + static_cast<size_t>(std::countr_zero(ready[low]));
        ready[low] &= ready[low] - 1;
        --ready_count;
        HloInstruction*& slot = instructions_[pos];
        for (const HloInstruction* user : slot->users()) {
            if (--missing_operands[static_cast<size_t>(user->id())] == 0) {
                const size_t user_pos =
                    position[static_cast<size_t>(user->id())];
                make_ready(user_pos);
                low = std::min(low, user_pos / 64);
            }
        }
        sorted.push_back(slot);
        slot = nullptr;
    }
    // A dependence cycle (a caller's bug) would leave instructions
    // behind; keep them, in their old order, for the verifier to report.
    for (HloInstruction* slot : instructions_) {
        if (slot != nullptr) sorted.push_back(slot);
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
    for (const HloInstruction* instr : instructions_) {
        next = std::max(next, instr->attrs().channel_id + 1);
    }
    return next;
}

std::string
HloComputation::ToString() const
{
    std::string out = StrCat("computation ", name_, " {\n");
    for (const HloInstruction* instr : instructions_) {
        out += "  ";
        if (instr == root_) out += "ROOT ";
        out += instr->ToString();
        out += "\n";
    }
    out += "}\n";
    return out;
}

}  // namespace overlap
