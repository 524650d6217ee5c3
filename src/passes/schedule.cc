#include "passes/schedule.h"

#include <algorithm>
#include <array>
#include <functional>
#include <queue>

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
    // Greedy: the ready unit with the smallest live-memory delta (its
    // output bytes minus the operand bytes it frees as their last
    // user), ties by program order (id). A ready unit's delta only ever
    // drops, and only when one of its operands is left with exactly one
    // unscheduled user, which must be it. So the ready set is a min-heap
    // on (delta, id) that gets a fresh entry whenever a delta drops; the
    // outdated entry sorts after its replacement, so it surfaces only
    // once the unit is scheduled, and is skipped.
    UnitMap<int64_t> missing(graph);
    UnitMap<int64_t> remaining_users(graph);
    UnitMap<int64_t> delta(graph);
    UnitMap<uint8_t> scheduled(graph);  // bool: vector<bool> has no bool&
    using Entry = std::pair<int64_t, int64_t>;  // (delta, id)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ready;
    auto make_ready = [&](SchedUnit* unit) {
        int64_t d = UnitOutputBytes(unit);
        for (SchedUnit* operand : unit->operands) {
            if (remaining_users[operand] == 1) d -= UnitOutputBytes(operand);
        }
        delta[unit] = d;
        ready.emplace(d, unit->id);
    };
    for (const auto& unit : graph.units()) {
        missing[unit.get()] = static_cast<int64_t>(unit->operands.size());
        remaining_users[unit.get()] =
            static_cast<int64_t>(unit->users.size());
    }
    for (const auto& unit : graph.units()) {
        if (unit->operands.empty()) make_ready(unit.get());
    }
    std::vector<SchedUnit*> order;
    order.reserve(graph.units().size());
    while (!ready.empty()) {
        SchedUnit* unit =
            graph.units()[static_cast<size_t>(ready.top().second)].get();
        ready.pop();
        if (scheduled[unit]) continue;
        scheduled[unit] = true;
        order.push_back(unit);
        for (SchedUnit* operand : unit->operands) {
            if (--remaining_users[operand] != 1) continue;
            // The operand's last user now frees it: re-key that user if
            // it is ready (a unit not yet ready counts it on arrival).
            for (SchedUnit* user : operand->users) {
                if (scheduled[user]) continue;
                if (missing[user] == 0) {
                    delta[user] -= UnitOutputBytes(operand);
                    ready.emplace(delta[user], user->id);
                }
                break;
            }
        }
        for (SchedUnit* user : unit->users) {
            if (--missing[user] == 0) make_ready(user);
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

    // Priority classes (lower is better): Dones first (latest possible
    // final position), then time-ready Starts (scheduling a ready Start
    // immediately unblocks the previous ring hop's Done while its
    // pending spacing has already guaranteed the overlap window), then
    // users of Dones, then everything else.
    auto priority_class = [](const SchedUnit* u) -> size_t {
        if (u->IsAsyncDone()) return 0;
        if (u->IsAsyncStart()) return 1;
        for (const SchedUnit* operand : u->operands) {
            if (operand->IsAsyncDone()) return 2;
        }
        return 3;
    };

    // An available unit's ready time is fixed when it becomes available,
    // and the clock only advances, so once time-ready it stays so.
    // Pending units wait in a min-heap on (ready time, later input
    // position first); time-ready ones in one max-heap on input position
    // per priority class.
    auto pending_after = [&](SchedUnit* a, SchedUnit* b) {
        if (ready_time[a] != ready_time[b]) {
            return ready_time[a] > ready_time[b];
        }
        return input_pos[a] < input_pos[b];
    };
    std::priority_queue<SchedUnit*, std::vector<SchedUnit*>,
                        decltype(pending_after)>
        pending(pending_after);
    auto earlier_input = [&](SchedUnit* a, SchedUnit* b) {
        return input_pos[a] < input_pos[b];
    };
    using ReadyHeap = std::priority_queue<SchedUnit*, std::vector<SchedUnit*>,
                                          decltype(earlier_input)>;
    std::array<ReadyHeap, 4> ready = {
        ReadyHeap(earlier_input), ReadyHeap(earlier_input),
        ReadyHeap(earlier_input), ReadyHeap(earlier_input)};

    std::vector<SchedUnit*> reversed;
    reversed.reserve(graph.units().size());
    double current_time = 0.0;
    int64_t in_flight = 0;

    // Select: best priority among time-ready candidates, ties to the
    // later input position. With the in-flight budget exhausted a Done
    // ranks as class 3.
    auto best_ready = [&]() -> ReadyHeap* {
        if (in_flight < max_in_flight && !ready[0].empty()) return &ready[0];
        if (!ready[1].empty()) return &ready[1];
        if (!ready[2].empty()) return &ready[2];
        ReadyHeap* best = ready[3].empty() ? nullptr : &ready[3];
        if (!ready[0].empty() &&
            (best == nullptr ||
             input_pos[ready[0].top()] > input_pos[best->top()])) {
            best = &ready[0];
        }
        return best;
    };

    for (const auto& unit : graph.units()) {
        unscheduled_users[unit.get()] =
            static_cast<int64_t>(unit->users.size());
        if (unit->users.empty()) {
            ready_time[unit.get()] = 0.0;
            ready[priority_class(unit.get())].push(unit.get());
        }
    }
    while (true) {
        while (!pending.empty() &&
               ready_time[pending.top()] <= current_time) {
            ready[priority_class(pending.top())].push(pending.top());
            pending.pop();
        }
        // If none is time-ready, the pending unit that becomes ready
        // first.
        SchedUnit* candidate = nullptr;
        if (ReadyHeap* heap = best_ready()) {
            candidate = heap->top();
            heap->pop();
        } else if (!pending.empty()) {
            candidate = pending.top();
            pending.pop();
        } else {
            break;
        }
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
                pending.push(operand);
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
