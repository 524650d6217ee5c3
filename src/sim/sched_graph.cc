#include "sim/sched_graph.h"

#include <algorithm>

#include "support/status.h"

namespace overlap {

SchedGraph::SchedGraph(const HloComputation& computation,
                       const CostModel& cost)
{
    const std::vector<HloInstruction*> instrs = computation.instructions();
    const size_t num_instrs = instrs.size();

    // Fusion groups map to units through a table indexed by group id.
    // Ids come from the computation's counter, so there are fewer than
    // instructions; a parsed module may carry any, which are first
    // renumbered through their sorted list.
    int64_t max_group = -1;
    for (const HloInstruction* instr : instrs) {
        max_group = std::max(max_group, instr->fusion_group());
    }
    std::vector<int64_t> sparse_groups;
    if (max_group >= static_cast<int64_t>(num_instrs)) {
        for (const HloInstruction* instr : instrs) {
            if (instr->fusion_group() >= 0) {
                sparse_groups.push_back(instr->fusion_group());
            }
        }
        std::sort(sparse_groups.begin(), sparse_groups.end());
        sparse_groups.erase(
            std::unique(sparse_groups.begin(), sparse_groups.end()),
            sparse_groups.end());
    }
    auto group_index = [&sparse_groups](int64_t group) {
        if (sparse_groups.empty()) return static_cast<size_t>(group);
        return static_cast<size_t>(
            std::lower_bound(sparse_groups.begin(), sparse_groups.end(),
                             group) -
            sparse_groups.begin());
    };
    std::vector<int64_t> group_unit(
        sparse_groups.empty() ? static_cast<size_t>(max_group + 1)
                              : sparse_groups.size(),
        -1);

    // Units in order of their first member; singletons get their own.
    // `member_start[u + 1]` counts unit u's members, then becomes the
    // end of its run in `members_`.
    slots_.assign(static_cast<size_t>(computation.instruction_id_bound()),
                  Slot{});
    std::vector<size_t> member_start(num_instrs + 1, 0);
    int64_t num_units = 0;
    for (HloInstruction* instr : instrs) {
        int64_t unit = -1;
        int64_t* group_entry = nullptr;
        if (instr->fusion_group() >= 0) {
            group_entry = &group_unit[group_index(instr->fusion_group())];
            unit = *group_entry;
        }
        if (unit < 0) {
            unit = num_units++;
            if (group_entry != nullptr) *group_entry = unit;
        }
        ++member_start[static_cast<size_t>(unit) + 1];
        slots_[static_cast<size_t>(instr->id())] = {instr, unit};
    }
    const size_t units = static_cast<size_t>(num_units);
    for (size_t u = 0; u < units; ++u) member_start[u + 1] += member_start[u];
    std::vector<size_t> cursor(member_start.begin(),
                               member_start.begin() + num_units);
    members_.resize(num_instrs);
    for (HloInstruction* instr : instrs) {
        size_t u = static_cast<size_t>(
            slots_[static_cast<size_t>(instr->id())].unit);
        members_[cursor[u]++] = instr;
    }

    // Per-unit fields; fused element-wise members are discounted.
    units_.resize(units);
    for (size_t u = 0; u < units; ++u) {
        SchedUnit& unit = units_[u];
        unit.id = static_cast<int64_t>(u);
        unit.members = std::span<HloInstruction* const>(members_).subspan(
            member_start[u], member_start[u + 1] - member_start[u]);
        double latency = 0.0;
        bool fused = unit.members.size() > 1;
        for (const HloInstruction* instr : unit.members) {
            double t = cost.InstructionSeconds(instr);
            if (fused && instr->opcode() != HloOpcode::kEinsum) {
                t *= kFusedElementwiseDiscount;
            }
            latency += t;
            if (instr->loop_group() >= 0) {
                unit.loop_group = instr->loop_group();
            }
        }
        // A Done's wait time is decided by the link engine / scheduler
        // heuristics, not charged as kernel time.
        if (unit.IsAsyncDone()) latency = 0.0;
        unit.latency = latency;
        unit.output_bytes = unit.members.back()->shape().byte_size();
        if (unit.IsAsyncStart()) {
            unit.transfer_seconds = cost.ExchangeSeconds(unit.members[0]);
        } else if (unit.IsAsyncDone()) {
            unit.transfer_seconds =
                cost.ExchangeSeconds(unit.members[0]->operand(0));
        }
    }

    // External edges, deduplicated: `stamp[p]` is the last unit that
    // took p as an operand. `user_start` counts users as member_start
    // counts members.
    size_t operand_bound = 0;
    for (const HloInstruction* instr : instrs) {
        operand_bound += instr->operands().size();
    }
    operands_.reserve(operand_bound);  // the spans below must not move
    std::vector<int64_t> stamp(units, -1);
    std::vector<size_t> user_start(units + 1, 0);
    for (SchedUnit& unit : units_) {
        const size_t begin = operands_.size();
        for (const HloInstruction* instr : unit.members) {
            for (const HloInstruction* operand : instr->operands()) {
                int64_t producer = UnitIndex(operand);
                if (producer == unit.id ||
                    stamp[static_cast<size_t>(producer)] == unit.id) {
                    continue;
                }
                stamp[static_cast<size_t>(producer)] = unit.id;
                operands_.push_back(&units_[static_cast<size_t>(producer)]);
                ++user_start[static_cast<size_t>(producer) + 1];
            }
        }
        unit.operands = std::span<const SchedUnit* const>(operands_).subspan(
            begin, operands_.size() - begin);
    }

    // Users by ascending id: consumers are visited in id order.
    for (size_t u = 0; u < units; ++u) user_start[u + 1] += user_start[u];
    std::copy(user_start.begin(), user_start.begin() + num_units,
              cursor.begin());
    users_.resize(operands_.size());
    for (const SchedUnit& unit : units_) {
        for (const SchedUnit* producer : unit.operands) {
            users_[cursor[static_cast<size_t>(producer->id)]++] = &unit;
        }
    }
    for (size_t u = 0; u < units; ++u) {
        units_[u].users = std::span<const SchedUnit* const>(users_).subspan(
            user_start[u], user_start[u + 1] - user_start[u]);
    }
}

int64_t
SchedGraph::UnitIndex(const HloInstruction* instr) const
{
    OVERLAP_CHECK(instr->id() >= 0 &&
                  instr->id() < static_cast<int64_t>(slots_.size()));
    const Slot& slot = slots_[static_cast<size_t>(instr->id())];
    // An id alone does not make an instruction local: a foreign one
    // sharing the id is not the slot's occupant.
    OVERLAP_CHECK(slot.instr == instr);
    return slot.unit;
}

const SchedUnit*
SchedGraph::unit_of(const HloInstruction* instr) const
{
    return &units_[static_cast<size_t>(UnitIndex(instr))];
}

std::vector<HloInstruction*>
SchedGraph::ExpandToInstructions(const std::vector<const SchedUnit*>& order)
{
    std::vector<HloInstruction*> schedule;
    for (const SchedUnit* unit : order) {
        schedule.insert(schedule.end(), unit->members.begin(),
                        unit->members.end());
    }
    return schedule;
}

std::vector<const SchedUnit*>
SchedGraph::UnitOrderOf(const std::vector<HloInstruction*>& sequence) const
{
    std::vector<const SchedUnit*> order;
    order.reserve(units_.size());
    std::vector<bool> seen(units_.size(), false);
    for (const HloInstruction* instr : sequence) {
        const SchedUnit* unit = unit_of(instr);
        if (!seen[static_cast<size_t>(unit->id)]) {
            seen[static_cast<size_t>(unit->id)] = true;
            order.push_back(unit);
        }
    }
    return order;
}

}  // namespace overlap
