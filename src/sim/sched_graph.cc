#include "sim/sched_graph.h"

#include <algorithm>
#include <map>

#include "support/status.h"

namespace overlap {

SchedGraph::SchedGraph(const HloComputation& computation,
                       const CostModel& cost)
{
    // Map fusion groups to units; singletons get their own.
    std::map<int64_t, SchedUnit*> group_units;
    int64_t next_id = 0;
    unit_of_.assign(static_cast<size_t>(computation.instruction_id_bound()),
                    nullptr);
    for (HloInstruction* instr : computation.instructions()) {
        SchedUnit* unit = nullptr;
        int64_t group = instr->fusion_group();
        if (group >= 0) {
            auto it = group_units.find(group);
            if (it != group_units.end()) {
                unit = it->second;
            }
        }
        if (unit == nullptr) {
            units_.push_back(std::make_unique<SchedUnit>());
            unit = units_.back().get();
            unit->id = next_id++;
            if (group >= 0) group_units[group] = unit;
        }
        unit->members.push_back(instr);
        if (instr->loop_group() >= 0) unit->loop_group = instr->loop_group();
        unit_of_[static_cast<size_t>(instr->id())] = unit;
    }

    // Latencies: fused element-wise members are discounted.
    for (const auto& unit : units_) {
        double latency = 0.0;
        bool fused = unit->members.size() > 1;
        for (const HloInstruction* instr : unit->members) {
            double t = cost.InstructionSeconds(instr);
            if (fused && instr->opcode() != HloOpcode::kEinsum) {
                t *= kFusedElementwiseDiscount;
            }
            latency += t;
        }
        // A Done's wait time is decided by the link engine / scheduler
        // heuristics, not charged as kernel time.
        if (unit->IsAsyncDone()) latency = 0.0;
        unit->latency = latency;
        if (unit->IsPermuteStart() || unit->IsPermuteDone()) {
            unit->transfer_seconds =
                cost.PermuteStepSeconds(unit->TransferBytes());
        } else if (unit->IsAsyncStart() || unit->IsAsyncDone()) {
            // Async all-to-all: the exchange occupies the channels for
            // the blocking form's duration.
            const HloInstruction* start =
                unit->members[0]->opcode() == HloOpcode::kAllToAllStart
                    ? unit->members[0]
                    : unit->members[0]->operand(0);
            unit->transfer_seconds = cost.BlockingCollectiveSeconds(start);
        }
    }

    // External edges (deduplicated).
    for (const auto& unit : units_) {
        for (const HloInstruction* instr : unit->members) {
            for (HloInstruction* operand : instr->operands()) {
                SchedUnit* producer = unit_of(operand);
                if (producer == unit.get()) continue;
                if (std::find(unit->operands.begin(), unit->operands.end(),
                              producer) == unit->operands.end()) {
                    unit->operands.push_back(producer);
                    producer->users.push_back(unit.get());
                }
            }
        }
    }
}

SchedUnit*
SchedGraph::unit_of(const HloInstruction* instr) const
{
    OVERLAP_CHECK(instr->id() >= 0 &&
                  instr->id() < static_cast<int64_t>(unit_of_.size()));
    SchedUnit* unit = unit_of_[static_cast<size_t>(instr->id())];
    // An id alone does not make an instruction local: a foreign one
    // sharing the id is not among the unit's members.
    OVERLAP_CHECK(unit != nullptr &&
                  std::find(unit->members.begin(), unit->members.end(),
                            instr) != unit->members.end());
    return unit;
}

std::vector<HloInstruction*>
SchedGraph::ExpandToInstructions(const std::vector<SchedUnit*>& order)
{
    std::vector<HloInstruction*> schedule;
    for (const SchedUnit* unit : order) {
        schedule.insert(schedule.end(), unit->members.begin(),
                        unit->members.end());
    }
    return schedule;
}

std::vector<SchedUnit*>
SchedGraph::UnitOrderOf(const std::vector<HloInstruction*>& sequence) const
{
    std::vector<SchedUnit*> order;
    order.reserve(units_.size());
    std::vector<bool> seen(units_.size(), false);
    for (const HloInstruction* instr : sequence) {
        SchedUnit* unit = unit_of(instr);
        if (!seen[static_cast<size_t>(unit->id)]) {
            seen[static_cast<size_t>(unit->id)] = true;
            order.push_back(unit);
        }
    }
    return order;
}

}  // namespace overlap
