#include "passes/schedule.h"

#include <algorithm>
#include <limits>

#include "hlo/verifier.h"
#include "support/strings.h"

namespace overlap {
namespace {

/** Output bytes a unit keeps live (its kernel's result buffer). */
int64_t
UnitOutputBytes(const SchedUnit* unit)
{
    return unit->members.back()->shape().byte_size();
}

/** Per-unit scheduler state, indexed by the dense SchedUnit::id. */
template <typename T>
class UnitMap {
  public:
    explicit UnitMap(const SchedGraph& graph) : values_(graph.units().size())
    {
    }

    T& operator[](const SchedUnit* unit)
    {
        return values_[static_cast<size_t>(unit->id)];
    }

  private:
    std::vector<T> values_;
};

}  // namespace

std::vector<SchedUnit*>
BaselineMemorySchedule(const SchedGraph& graph)
{
    UnitMap<int64_t> missing(graph);
    UnitMap<int64_t> remaining_users(graph);
    std::vector<SchedUnit*> ready;
    for (const auto& unit : graph.units()) {
        missing[unit.get()] = static_cast<int64_t>(unit->operands.size());
        remaining_users[unit.get()] =
            static_cast<int64_t>(unit->users.size());
        if (unit->operands.empty()) ready.push_back(unit.get());
    }
    std::vector<SchedUnit*> order;
    order.reserve(graph.units().size());
    while (!ready.empty()) {
        // Greedy: smallest live-memory delta; ties by program order (id).
        size_t best = 0;
        int64_t best_delta = std::numeric_limits<int64_t>::max();
        for (size_t i = 0; i < ready.size(); ++i) {
            const SchedUnit* u = ready[i];
            int64_t delta = UnitOutputBytes(u);
            for (const SchedUnit* operand : u->operands) {
                if (remaining_users[operand] == 1) {
                    delta -= UnitOutputBytes(operand);
                }
            }
            if (delta < best_delta ||
                (delta == best_delta && u->id < ready[best]->id)) {
                best_delta = delta;
                best = i;
            }
        }
        SchedUnit* unit = ready[best];
        ready.erase(ready.begin() + static_cast<int64_t>(best));
        order.push_back(unit);
        for (SchedUnit* operand : unit->operands) {
            --remaining_users[operand];
        }
        for (SchedUnit* user : unit->users) {
            if (--missing[user] == 0) ready.push_back(user);
        }
    }
    OVERLAP_CHECK(order.size() == graph.units().size());
    return order;
}

std::vector<SchedUnit*>
BottomUpSchedule(const SchedGraph& graph,
                 const std::vector<SchedUnit*>& input, int64_t max_in_flight)
{
    // Algorithm 2: schedule in reverse from the dataflow roots so that
    // (after the final reversal) Dones land as late and Starts as early
    // as possible.
    UnitMap<int64_t> input_pos(graph);
    for (size_t i = 0; i < input.size(); ++i) {
        input_pos[input[i]] = static_cast<int64_t>(i);
    }
    // Two distinct time roles: the reverse clock advances only by kernel
    // latency (a Done unit itself takes no device time), while the
    // ready-time an operand inherits from a Done user includes the wire
    // time — that spacing is what holds the matching Start in the
    // pending queue until enough computation has been scheduled between
    // them to hide the transfer.
    auto spacing_latency = [](const SchedUnit* u) {
        return u->IsAsyncDone() ? u->transfer_seconds : u->latency;
    };

    UnitMap<int64_t> unscheduled_users(graph);
    UnitMap<double> ready_time(graph);
    // Earliest reverse-clock time each Start may be scheduled: anchored
    // to the clock value at which its Done was scheduled (not to the
    // Done's ready_time), so that pending-queue jumps on one ring chain
    // do not let another chain's Start slip in right after its Done and
    // serialize the transfers. Other units keep 0, which bounds nothing
    // because ready times are never negative.
    UnitMap<double> start_allowed(graph);
    std::vector<SchedUnit*> available;
    for (const auto& unit : graph.units()) {
        unscheduled_users[unit.get()] =
            static_cast<int64_t>(unit->users.size());
        if (unit->users.empty()) {
            ready_time[unit.get()] = 0.0;
            available.push_back(unit.get());
        }
    }

    // Priority classes (lower is better): Dones first (latest possible
    // final position), then time-ready Starts (scheduling a ready Start
    // immediately unblocks the previous ring hop's Done while its
    // pending spacing has already guaranteed the overlap window), then
    // users of Dones, then everything else.
    auto priority_class = [](const SchedUnit* u) {
        if (u->IsAsyncDone()) return 0;
        if (u->IsAsyncStart()) return 1;
        for (const SchedUnit* operand : u->operands) {
            if (operand->IsAsyncDone()) return 2;
        }
        return 3;
    };

    std::vector<SchedUnit*> reversed;
    reversed.reserve(graph.units().size());
    double current_time = 0.0;
    int64_t in_flight = 0;

    while (!available.empty()) {
        // Select: best priority among time-ready candidates; if none is
        // time-ready, the pending unit that becomes ready first.
        SchedUnit* candidate = nullptr;
        int64_t candidate_class = 4;
        bool candidate_ready = false;
        double candidate_rt = 0.0;
        for (SchedUnit* u : available) {
            double rt = ready_time[u];
            bool is_ready = rt <= current_time;
            int64_t cls = priority_class(u);
            if (cls == 0 && in_flight >= max_in_flight) {
                cls = 3;  // budget exhausted: treat the Done as ordinary
            }
            bool better;
            if (candidate == nullptr) {
                better = true;
            } else if (is_ready != candidate_ready) {
                better = is_ready;
            } else if (is_ready) {
                better = cls < candidate_class ||
                         (cls == candidate_class &&
                          input_pos[u] > input_pos[candidate]);
            } else {
                better = rt < candidate_rt ||
                         (rt == candidate_rt &&
                          input_pos[u] > input_pos[candidate]);
            }
            if (better) {
                candidate = u;
                candidate_class = cls;
                candidate_ready = is_ready;
                candidate_rt = rt;
            }
        }
        OVERLAP_CHECK(candidate != nullptr);
        available.erase(
            std::find(available.begin(), available.end(), candidate));
        reversed.push_back(candidate);
        if (candidate->IsAsyncStart()) --in_flight;
        current_time = std::max(current_time, ready_time[candidate]) +
                       candidate->latency;
        if (candidate->IsAsyncDone()) {
            ++in_flight;
            start_allowed[candidate->operands.front()] =
                current_time + candidate->transfer_seconds;
        }
        for (SchedUnit* operand : candidate->operands) {
            if (--unscheduled_users[operand] == 0) {
                double rt = 0.0;
                for (const SchedUnit* user : operand->users) {
                    rt = std::max(rt, ready_time[user] +
                                          spacing_latency(user));
                }
                ready_time[operand] = std::max(rt, start_allowed[operand]);
                available.push_back(operand);
            }
        }
    }
    OVERLAP_CHECK(reversed.size() == graph.units().size());
    std::reverse(reversed.begin(), reversed.end());
    return reversed;
}

std::vector<SchedUnit*>
TopDownSchedule(const SchedGraph& graph,
                const std::vector<SchedUnit*>& input, int64_t max_in_flight)
{
    // Forward list scheduling with the two §5.2 placement rules — a
    // CollectivePermuteStart goes as early as possible and a Done as
    // late as its transfer needs — paced by a simple estimated clock
    // (the cost-based rebalancing). Less precise than the bottom-up
    // scheduler's per-transfer spacing accounting, which is where it
    // gives up some overlap (§6.3).
    UnitMap<int64_t> input_pos(graph);
    for (size_t i = 0; i < input.size(); ++i) {
        input_pos[input[i]] = static_cast<int64_t>(i);
    }
    UnitMap<int64_t> missing(graph);
    std::vector<SchedUnit*> ready;
    for (const auto& unit : graph.units()) {
        missing[unit.get()] = static_cast<int64_t>(unit->operands.size());
        if (unit->operands.empty()) ready.push_back(unit.get());
    }
    std::vector<SchedUnit*> order;
    order.reserve(graph.units().size());
    int64_t in_flight = 0;

    auto emit = [&](SchedUnit* unit) {
        ready.erase(std::find(ready.begin(), ready.end(), unit));
        order.push_back(unit);
        if (unit->IsAsyncStart()) ++in_flight;
        if (unit->IsAsyncDone()) --in_flight;
        for (SchedUnit* user : unit->users) {
            if (--missing[user] == 0) ready.push_back(user);
        }
    };

    // Eagerly issuing every ready Start would flood the links with the
    // first hops of all chains at once, so the ASAP rule runs under a
    // small self-imposed window in addition to the hardware budget. A
    // Done is released once the estimated clock passes its transfer's
    // arrival — deferring it maximally would also defer the next ring
    // hop's Start, which depends on it.
    const int64_t eager_window = std::min<int64_t>(max_in_flight, 6);
    double clock = 0.0;
    UnitMap<double> arrival(graph);
    while (!ready.empty()) {
        // Rule 1: issue ready Starts as early as possible.
        SchedUnit* pick = nullptr;
        for (SchedUnit* u : ready) {
            if (!u->IsAsyncStart() || in_flight >= eager_window) {
                continue;
            }
            if (pick == nullptr || input_pos[u] < input_pos[pick]) {
                pick = u;
            }
        }
        // Rule 2: release Dones whose transfer has (estimatedly) landed.
        if (pick == nullptr) {
            for (SchedUnit* u : ready) {
                if (!u->IsAsyncDone()) continue;
                double arrived = arrival[u->operands.front()];
                if (arrived > clock) continue;
                if (pick == nullptr ||
                    arrived < arrival[pick->operands.front()]) {
                    pick = u;
                }
            }
        }
        // Rule 3: other work in input order.
        if (pick == nullptr) {
            for (SchedUnit* u : ready) {
                if (u->IsAsyncDone() || u->IsAsyncStart()) continue;
                if (pick == nullptr ||
                    input_pos[u] < input_pos[pick]) {
                    pick = u;
                }
            }
        }
        // Rule 4: nothing else — wait on the oldest outstanding transfer.
        if (pick == nullptr) {
            for (SchedUnit* u : ready) {
                if (!u->IsAsyncDone()) continue;
                if (pick == nullptr ||
                    arrival[u->operands.front()] <
                        arrival[pick->operands.front()]) {
                    pick = u;
                }
            }
        }
        if (pick == nullptr) pick = ready.front();  // budget-blocked Starts
        if (pick->IsAsyncStart()) {
            arrival[pick] = clock + pick->transfer_seconds;
        }
        if (pick->IsAsyncDone()) {
            clock = std::max(clock, arrival[pick->operands.front()]);
        }
        clock += pick->latency;
        emit(pick);
    }
    OVERLAP_CHECK(order.size() == graph.units().size());
    return order;
}

Status
ScheduleComputation(HloComputation* computation, const CostModel& cost,
                    SchedulerKind kind)
{
    SchedGraph graph(*computation, cost);
    std::vector<SchedUnit*> baseline = BaselineMemorySchedule(graph);
    std::vector<SchedUnit*> order;
    switch (kind) {
      case SchedulerKind::kBaselineOnly:
          order = std::move(baseline);
          break;
      case SchedulerKind::kBottomUp:
          order = BottomUpSchedule(graph, baseline,
                                   cost.spec().max_in_flight_async);
          break;
      case SchedulerKind::kTopDown:
          order = TopDownSchedule(graph, baseline,
                                  cost.spec().max_in_flight_async);
          break;
    }
    std::vector<HloInstruction*> schedule =
        SchedGraph::ExpandToInstructions(order);
    computation->set_schedule(std::move(schedule));
    Status verified = VerifySchedule(*computation);
    if (!verified.ok()) {
        computation->clear_schedule();
        return Internal(StrCat("scheduler produced an invalid order: ",
                               verified.message()));
    }
    return Status::Ok();
}

}  // namespace overlap
