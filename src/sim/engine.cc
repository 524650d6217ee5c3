#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "support/strings.h"

namespace overlap {
namespace {

/** Route of a CollectivePermute on the torus. */
struct PermuteRoute {
    int64_t axis = 0;
    /// 0: toward lower ring position, 1: higher, -1: antipodal (either
    /// direction works; the engine load-balances onto the freer one).
    int64_t direction = 0;
    int64_t hops = 1;
};

/**
 * Derives the route from the first source-target pair (all pairs of one
 * ring-shift permute are congruent by construction).
 */
StatusOr<PermuteRoute>
RouteOf(const Mesh& mesh, const HloInstruction* permute)
{
    const auto& pairs = permute->attrs().source_target_pairs;
    if (pairs.empty()) return InvalidArgument("permute without pairs");
    auto [src, dst] = pairs.front();
    std::vector<int64_t> src_coords = mesh.Coords(src);
    std::vector<int64_t> dst_coords = mesh.Coords(dst);
    PermuteRoute route;
    bool found = false;
    for (int64_t axis = 0; axis < mesh.num_axes(); ++axis) {
        if (src_coords[static_cast<size_t>(axis)] ==
            dst_coords[static_cast<size_t>(axis)]) {
            continue;
        }
        if (found) {
            return Unimplemented(
                "multi-axis collective-permute routing not modeled");
        }
        found = true;
        route.axis = axis;
        int64_t n = mesh.axis_size(axis);
        int64_t delta = (dst_coords[static_cast<size_t>(axis)] -
                             src_coords[static_cast<size_t>(axis)] + n) %
                        n;
        if (2 * delta == n) {
            // Antipodal move (e.g. the only hop of a 2-device ring):
            // either direction reaches it; the caller load-balances.
            route.direction = -1;
            route.hops = delta;
        } else if (delta < n - delta) {
            route.direction = 1;
            route.hops = delta;
        } else {
            route.direction = 0;
            route.hops = n - delta;
        }
    }
    if (!found) {
        return InvalidArgument("self-permute should not reach the engine");
    }
    return route;
}

/** The ring link device 0 uses on `axis` in engine direction `dir`. */
std::pair<int64_t, int64_t>
RepresentativeLink(const Mesh& mesh, int64_t axis, int64_t dir)
{
    return {0, mesh.RingNeighbor(0, axis, dir == 0 ? -1 : 1)};
}

/** True when directed link src->dst is a ring hop of (axis, dir). */
bool
ChannelUsesLink(const Mesh& mesh, int64_t axis, int64_t dir, int64_t src,
                int64_t dst)
{
    if (src < 0 || src >= mesh.num_devices()) return false;
    return mesh.RingNeighbor(src, axis, dir == 0 ? -1 : 1) == dst;
}

/** True when any device group of the collective contains `chip`. */
bool
GroupsInvolveChip(const std::vector<std::vector<int64_t>>& groups,
                  int64_t chip)
{
    for (const auto& group : groups) {
        for (int64_t device : group) {
            if (device == chip) return true;
        }
    }
    return false;
}

/** Index of `unit`'s entry in per-unit state vectors. */
size_t
Slot(const SchedUnit* unit)
{
    return static_cast<size_t>(unit->id);
}

/**
 * No-progress pre-check over the executed order (the silent-hang class:
 * a real runtime would spin forever on these schedules, the simulator
 * must instead terminate with a diagnostic naming the blocked
 * instructions). Catches:
 *  - an async Done (permute or all-to-all) whose Start is not scheduled
 *    before it (orphaned pair / permute cycle),
 *  - an async Start with no matching Done (its transfer and hardware
 *    sync flag never retire),
 *  - async in-flight budget starvation: a Start issued while every
 *    hardware sync flag is held by a transfer whose Done is scheduled
 *    later (the device can never reach the Done that would free one).
 */
Status
CheckNoDeadlock(const std::vector<SchedUnit*>& order, size_t num_units,
                int64_t max_in_flight)
{
    std::vector<bool> started(num_units, false);
    std::vector<const SchedUnit*> outstanding;
    for (const SchedUnit* unit : order) {
        if (unit->IsAsyncStart()) {
            if (max_in_flight > 0 &&
                static_cast<int64_t>(outstanding.size()) >=
                    max_in_flight) {
                std::vector<std::string> holders;
                for (const SchedUnit* s : outstanding) {
                    holders.push_back(s->members.front()->name());
                }
                return FailedPrecondition(StrCat(
                    "no progress possible: async in-flight budget (",
                    max_in_flight, ") exhausted at '",
                    unit->members.front()->name(),
                    "'; flags held by Starts whose Dones are scheduled "
                    "later: ",
                    StrJoin(holders, ", ")));
            }
            started[Slot(unit)] = true;
            outstanding.push_back(unit);
        } else if (unit->IsAsyncDone()) {
            if (unit->operands.empty()) {
                return FailedPrecondition(StrCat(
                    "no progress possible: async Done '",
                    unit->members.front()->name(),
                    "' has no Start operand"));
            }
            const SchedUnit* start = unit->operands.front();
            if (!started[Slot(start)]) {
                return FailedPrecondition(StrCat(
                    "no progress possible: async Done '",
                    unit->members.front()->name(),
                    "' waits on Start '", start->members.front()->name(),
                    "' which is not scheduled before it (orphaned "
                    "Start/Done pair)"));
            }
            outstanding.erase(std::remove(outstanding.begin(),
                                          outstanding.end(), start),
                              outstanding.end());
        }
    }
    if (!outstanding.empty()) {
        std::vector<std::string> names;
        for (const SchedUnit* s : outstanding) {
            names.push_back(s->members.front()->name());
        }
        return FailedPrecondition(StrCat(
            "no progress possible: async Start(s) without a "
            "matching Done never retire their transfers: ",
            StrJoin(names, ", ")));
    }
    return Status::Ok();
}

/** Why an async transfer can never arrive. */
struct KilledTransfer {
    FailureCause cause = FailureCause::kChipDeath;
    int64_t dead_link_src = -1;
    int64_t dead_link_dst = -1;
    double fail_time_seconds = 0.0;
};

}  // namespace

const char*
TraceKindName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::kCompute: return "compute";
      case TraceKind::kCollective: return "collective";
      case TraceKind::kTransferWait: return "wait";
      case TraceKind::kTransferInFlight: return "transfer";
    }
    return "unknown";
}

const char*
FailureCauseName(FailureCause cause)
{
    switch (cause) {
      case FailureCause::kChipDeath: return "chip_death";
      case FailureCause::kLinkDeath: return "link_death";
      case FailureCause::kRetryExhaustion: return "retry_exhaustion";
      case FailureCause::kSilentCorruption: return "silent_corruption";
    }
    return "unknown";
}

std::string
FailureReport::ToString() const
{
    std::string out = StrCat(
        "failure(", FailureCauseName(cause), ") at step ", failed_step,
        " t=", HumanTime(fail_time_seconds), ": ");
    if (dead_chip >= 0) {
        out += StrCat("chip ", dead_chip, " dead");
    } else if (dead_link_src >= 0) {
        out += StrCat("link ", dead_link_src, "->", dead_link_dst,
                      " dead");
    }
    out += StrCat("; last completed step ", last_completed_step,
                  ", last progress ", HumanTime(last_progress_seconds),
                  ", watchdog fired at ", HumanTime(detected_at_seconds),
                  "; blocked: ", StrJoin(blocked_instructions, ", "));
    return out;
}

TrialStats
TrialStats::FromSamples(std::vector<double> samples)
{
    TrialStats stats;
    stats.num_trials = static_cast<int64_t>(samples.size());
    stats.step_seconds = std::move(samples);
    if (stats.step_seconds.empty()) return stats;
    for (double s : stats.step_seconds) stats.mean_step_seconds += s;
    stats.mean_step_seconds /=
        static_cast<double>(stats.step_seconds.size());
    std::vector<double> sorted = stats.step_seconds;
    std::sort(sorted.begin(), sorted.end());
    // Nearest-rank percentile: smallest value with at least q*n samples
    // at or below it.
    auto percentile = [&sorted](double q) {
        size_t n = sorted.size();
        size_t rank = static_cast<size_t>(
            std::ceil(q * static_cast<double>(n)));
        if (rank == 0) rank = 1;
        if (rank > n) rank = n;
        return sorted[rank - 1];
    };
    stats.p50_step_seconds = percentile(0.50);
    stats.p99_step_seconds = percentile(0.99);
    stats.min_step_seconds = sorted.front();
    stats.max_step_seconds = sorted.back();
    return stats;
}

StatusOr<StepOutcome>
PodSimulator::RunStep(const HloModule& module, int64_t step_index,
                      bool collect_trace, int64_t trial) const
{
    if (module.entry() == nullptr) {
        return InvalidArgument("module has no entry computation");
    }
    const HloComputation& computation = *module.entry();
    SchedGraph graph(computation, cost_);
    std::vector<SchedUnit*> order =
        graph.UnitOrderOf(computation.sequence());
    OVERLAP_RETURN_IF_ERROR(
        CheckNoDeadlock(order, graph.units().size(),
                        spec_.max_in_flight_async));

    // One link channel per (axis, direction): its busy-until time and
    // its effective rates under the fault model. A ring step completes
    // lockstep when its slowest link does, so each channel takes the min
    // bandwidth factor (and max latency multiplier) over the directed
    // links of its axis+direction. Lockstep at each sync point likewise
    // pins compute throughput to the slowest chip. A fault-free model
    // yields factors of exactly 1.0, keeping results bit-identical to a
    // simulation without one.
    struct LinkChannel {
        double free_at = 0.0;
        double bw_factor = 1.0;
        double lat_factor = 1.0;
    };
    std::vector<LinkChannel> channels(
        static_cast<size_t>(mesh_.num_axes()) * 2);
    auto channel = [&channels](int64_t axis, int64_t dir) -> double& {
        return channels[static_cast<size_t>(axis * 2 + dir)].free_at;
    };
    double compute_factor = 1.0;
    if (!fault_.fault_free()) {
        for (int64_t axis = 0; axis < mesh_.num_axes(); ++axis) {
            for (int64_t dir = 0; dir < 2; ++dir) {
                LinkChannel& c =
                    channels[static_cast<size_t>(axis * 2 + dir)];
                c.bw_factor =
                    fault_.SlowestLinkFactor(mesh_, axis, dir, trial);
                c.lat_factor =
                    fault_.WorstLinkLatencyFactor(mesh_, axis, dir);
            }
        }
        compute_factor =
            fault_.SlowestChipFactor(mesh_.num_devices(), trial);
    }

    // Permanent failure manifest in this step: the dead entity exists
    // from `dead_from` (time 0 when it died in an earlier step).
    const PermanentFault* permanent =
        fault_.fault_free() ? nullptr
                            : fault_.ActivePermanentFault(step_index);
    double dead_from = 0.0;
    if (permanent != nullptr) {
        dead_from = permanent->fail_step < step_index
                        ? 0.0
                        : permanent->fail_time_seconds;
    }
    // True when a comm op on (axis, dir ring channel / device groups)
    // needs the dead entity.
    auto permute_involves_dead = [&](const HloInstruction* head,
                                     int64_t axis,
                                     int64_t dir) -> bool {
        if (permanent == nullptr) return false;
        if (permanent->IsChip()) {
            for (const auto& [src, dst] :
                 head->attrs().source_target_pairs) {
                if (src == permanent->chip || dst == permanent->chip) {
                    return true;
                }
            }
            return false;
        }
        return ChannelUsesLink(mesh_, axis, dir, permanent->link_src,
                               permanent->link_dst);
    };
    auto collective_involves_dead =
        [&](const std::vector<std::vector<int64_t>>& groups,
            int64_t axis) -> bool {
        if (permanent == nullptr) return false;
        if (permanent->IsChip()) {
            return GroupsInvolveChip(groups, permanent->chip);
        }
        if (axis < 0) return true;  // occupies every channel
        return ChannelUsesLink(mesh_, axis, 0, permanent->link_src,
                               permanent->link_dst) ||
               ChannelUsesLink(mesh_, axis, 1, permanent->link_src,
                               permanent->link_dst);
    };

    // ---- Silent-data-corruption modeling (DESIGN.md §16) ------------
    //
    // Detector time is real device time (checksum passes are memory-
    // bound elementwise walks), charged via ElementwiseBytesSeconds:
    // sender + receiver hash per transfer payload, one reduced-
    // contraction pass per ABFT-checked einsum. Detection is same-step
    // or never: ABFT validates a contraction *given its inputs*, so a
    // corruption that slips past this step's checks (cadence-skipped
    // ordinal, detector off) is a poisoned input from the next step on
    // and no later check can flag it — the outcome reports it escaped.
    const SdcDetectorConfig& sdc = fault_.sdc();
    const bool transfer_checks = sdc.enabled && sdc.verify_transfers;
    const bool abft_checks = sdc.enabled && sdc.verify_einsums;
    std::vector<SilentCorruption> live_corruptions;
    if (fault_.has_silent_corruptions()) {
        live_corruptions = fault_.ActiveCorruptions(step_index);
    }
    // Per-kind ordinals over the computation's instruction list — the
    // same program-order scheme the evaluator's AnalyzeProgram assigns,
    // so a SilentCorruption's `instruction` names one instruction in
    // both the timing model and the data model.
    std::unordered_map<const HloInstruction*, int64_t> einsum_ordinals;
    std::unordered_map<const HloInstruction*, int64_t> exchange_ordinals;
    int64_t num_einsums = 0;
    if (sdc.enabled) {
        for (const HloInstruction* instr : computation.instructions()) {
            if (instr->opcode() == HloOpcode::kEinsum) {
                einsum_ordinals[instr] = num_einsums++;
            } else if (IsExchangeOp(instr->opcode())) {
                exchange_ordinals[instr] =
                    static_cast<int64_t>(exchange_ordinals.size());
            }
        }
    }
    double detect_time = std::numeric_limits<double>::infinity();
    CorruptionReport detection;
    auto note_detection = [&](const SilentCorruption& c,
                              CorruptionDetector detector, int64_t ordinal,
                              double at) {
        if (at >= detect_time) return;
        detect_time = at;
        detection = CorruptionReport();
        detection.step = step_index;
        detection.chip = c.chip;
        detection.instruction = ordinal;
        detection.detector = detector;
        detection.injected_step = c.step;
    };
    // A receiver-side checksum mismatch localizes the culprit source
    // chip of fresh (this-step) payload corruption on `op`.
    auto note_transfer_detection = [&](const HloInstruction* op,
                                       double at) {
        auto it = exchange_ordinals.find(op);
        if (it == exchange_ordinals.end()) return;
        for (const SilentCorruption& c : live_corruptions) {
            if (c.step == step_index &&
                c.target == CorruptionTarget::kTransferPayload &&
                c.instruction == it->second && c.chip >= 0 &&
                c.chip < mesh_.num_devices()) {
                note_detection(c, CorruptionDetector::kTransferChecksum,
                               it->second, at);
            }
        }
    };

    int64_t transfer_index = 0;

    // Per-unit state by SchedUnit::id: a Start's arrival time and its
    // receiver-side checksum cost. Transfers killed by a fault are rare
    // and stay in a map.
    const size_t num_units = graph.units().size();
    std::vector<double> arrival(num_units, 0.0);
    std::vector<double> receiver_check(num_units, 0.0);
    std::unordered_map<const SchedUnit*, KilledTransfer> killed;
    std::vector<const SchedUnit*> outstanding_starts;
    StepOutcome outcome;
    SimResult& result = outcome.result;
    double time = 0.0;
    int64_t in_flight = 0;

    // The watchdog path: the device is stuck at `blocked` (its
    // dependency can never be satisfied); report instead of spinning.
    auto fail_at = [&](const SchedUnit* blocked,
                       const KilledTransfer& info,
                       const std::vector<std::string>& extra_blocked) {
        outcome.failed = true;
        FailureReport& failure = outcome.failure;
        failure.cause = info.cause;
        if (permanent != nullptr && permanent->IsChip() &&
            info.cause == FailureCause::kChipDeath) {
            failure.dead_chip = permanent->chip;
        }
        failure.dead_link_src = info.dead_link_src;
        failure.dead_link_dst = info.dead_link_dst;
        failure.failed_step = step_index;
        failure.last_completed_step = step_index - 1;
        failure.fail_time_seconds = info.fail_time_seconds;
        failure.last_progress_seconds = time;
        failure.detected_at_seconds =
            time + fault_.spec().watchdog_timeout_seconds;
        failure.blocked_instructions.push_back(
            blocked->members.front()->name());
        for (const std::string& name : extra_blocked) {
            failure.blocked_instructions.push_back(name);
        }
        for (const SchedUnit* s : outstanding_starts) {
            if (s != blocked &&
                std::find(failure.blocked_instructions.begin(),
                          failure.blocked_instructions.end(),
                          s->members.front()->name()) ==
                    failure.blocked_instructions.end()) {
                failure.blocked_instructions.push_back(
                    s->members.front()->name());
            }
        }
        result.step_seconds = time;
    };

    // Liveness accounting over the executed order: a unit's result buffer
    // is allocated when it runs and freed once its last reader has run.
    std::vector<int64_t> remaining_readers(num_units, 0);
    for (const SchedUnit* unit : order) {
        remaining_readers[Slot(unit)] =
            static_cast<int64_t>(unit->users.size());
    }
    int64_t live_bytes = 0;
    auto output_bytes = [](const SchedUnit* unit) {
        return unit->members.back()->shape().byte_size();
    };
    auto account_memory = [&](const SchedUnit* unit) {
        live_bytes += output_bytes(unit);
        result.peak_memory_bytes =
            std::max(result.peak_memory_bytes, live_bytes);
        for (const SchedUnit* operand : unit->operands) {
            if (--remaining_readers[Slot(operand)] == 0) {
                live_bytes -= output_bytes(operand);
            }
        }
        if (unit->users.empty()) live_bytes -= output_bytes(unit);
    };

    auto record = [&](const std::string& label, TraceKind kind,
                      double start, double end, int64_t loop_group) {
        if (collect_trace && end > start) {
            result.trace.push_back({label, kind, start, end, loop_group});
        }
    };

    for (const SchedUnit* unit : order) {
        const HloInstruction* head = unit->members.front();
        account_memory(unit);
        if (unit->IsPermuteStart()) {
            auto route = RouteOf(mesh_, head);
            if (!route.ok()) return route.status();
            double bytes = static_cast<double>(unit->TransferBytes());
            int64_t direction = route->direction;
            if (direction < 0) {
                direction = channel(route->axis, 0) <=
                                    channel(route->axis, 1)
                                ? 0
                                : 1;
            }
            size_t ch = static_cast<size_t>(route->axis * 2 + direction);
            double wire =
                static_cast<double>(route->hops) * bytes /
                (spec_.link_bandwidth * channels[ch].bw_factor);
            TransferOutcome retries =
                fault_.TransferOutcomeOf(transfer_index++, trial);
            double retry_delay =
                static_cast<double>(retries.failures) * wire +
                retries.backoff_seconds;
            if (transfer_checks) {
                // Sender hashes the payload before putting it on the
                // wire; the matching receiver hash runs at the Done.
                double chk = cost_.ElementwiseBytesSeconds(bytes);
                record(StrCat("sdc_checksum:", head->name()),
                       TraceKind::kCompute, time, time + chk,
                       unit->loop_group);
                time += chk;
                result.detector_seconds += chk;
                ++result.num_transfer_checksums;
                receiver_check[Slot(unit)] = chk;
            }
            double& free_at = channel(route->axis, direction);
            double begin = std::max(time, free_at);
            double end_transfer = begin + retry_delay + wire;
            // The device does not stall at a Start; a transfer that can
            // never arrive (dead chip/link, exhausted retries) parks an
            // infinite arrival on the matching Done instead.
            if (retries.exhausted) {
                KilledTransfer info;
                info.cause = FailureCause::kRetryExhaustion;
                auto [ls, ld] =
                    RepresentativeLink(mesh_, route->axis, direction);
                info.dead_link_src = ls;
                info.dead_link_dst = ld;
                info.fail_time_seconds = begin;
                killed[unit] = info;
                arrival[Slot(unit)] =
                    std::numeric_limits<double>::infinity();
            } else if (permute_involves_dead(head, route->axis,
                                             direction) &&
                       end_transfer > dead_from) {
                KilledTransfer info;
                info.cause = permanent->IsChip()
                                 ? FailureCause::kChipDeath
                                 : FailureCause::kLinkDeath;
                info.dead_link_src = permanent->link_src;
                info.dead_link_dst = permanent->link_dst;
                info.fail_time_seconds = dead_from;
                killed[unit] = info;
                arrival[Slot(unit)] =
                    std::numeric_limits<double>::infinity();
            } else {
                free_at = begin + retry_delay + wire;
                arrival[Slot(unit)] = free_at +
                                static_cast<double>(route->hops) *
                                    spec_.link_latency *
                                    channels[ch].lat_factor;
                // In-flight interval on the transfer lane: queueing
                // behind earlier traffic in the same direction, retries,
                // wire time and per-hop latency, Start issue to arrival.
                // Starting at the issue time (not `begin`) keeps every
                // Done-wait interval a subset of its transfer's
                // in-flight interval, which the overlap report's
                // hidden+exposed==total accounting relies on.
                record(head->name(), TraceKind::kTransferInFlight, time,
                       arrival[Slot(unit)], unit->loop_group);
            }
            result.transferred_bytes +=
                bytes * static_cast<double>(1 + retries.failures);
            result.retry.Accumulate(retries);
            ++result.num_async_transfers;
            ++in_flight;
            outstanding_starts.push_back(unit);
            result.peak_in_flight =
                std::max(result.peak_in_flight, in_flight);
        } else if (unit->IsPermuteDone()) {
            const SchedUnit* start = unit->operands.front();
            auto killed_it = killed.find(start);
            if (killed_it != killed.end()) {
                // The paired Start's transfer will never arrive: the
                // device is stuck here; the watchdog turns the stall
                // into a structured report.
                fail_at(unit, killed_it->second,
                        {start->members.front()->name()});
                return outcome;
            }
            double arrived = arrival[Slot(start)];
            if (arrived > time) {
                record(head->name(), TraceKind::kTransferWait, time,
                       arrived, unit->loop_group);
                result.exposed_comm_seconds += arrived - time;
                time = arrived;
            }
            if (transfer_checks) {
                double chk = receiver_check[Slot(start)];
                record(StrCat("sdc_checksum:", head->name()),
                       TraceKind::kCompute, time, time + chk,
                       unit->loop_group);
                time += chk;
                result.detector_seconds += chk;
                ++result.num_transfer_checksums;
                note_transfer_detection(start->members.front(), time);
            }
            --in_flight;
            outstanding_starts.erase(
                std::remove(outstanding_starts.begin(),
                            outstanding_starts.end(), start),
                outstanding_starts.end());
        } else if (unit->IsAsyncStart()) {
            // Async all-to-all Start (permute Starts matched above): the
            // exchange occupies both ring directions of its group axis
            // for the blocking form's duration, but the device does not
            // stall — the wait, if any, lands on the matching Done.
            const auto& groups = head->attrs().groups;
            int64_t group_size =
                groups.empty() ? 1
                               : static_cast<int64_t>(groups[0].size());
            double duration = cost_.BlockingCollectiveSeconds(head);
            double bytes = static_cast<double>(
                head->operand(0)->shape().byte_size());
            if (transfer_checks) {
                // Sender hashes the payload before the exchange; the
                // matching receiver hash runs at the Done.
                double chk = cost_.ElementwiseBytesSeconds(bytes);
                record(StrCat("sdc_checksum:", head->name()),
                       TraceKind::kCompute, time, time + chk,
                       unit->loop_group);
                time += chk;
                result.detector_seconds += chk;
                ++result.num_transfer_checksums;
                receiver_check[Slot(unit)] = chk;
            }
            double begin = time;
            bool exchange_killed = false;
            if (group_size > 1) {
                int64_t axis = mesh_.InferGroupsAxis(groups);
                size_t first = axis >= 0 ? static_cast<size_t>(axis * 2)
                                         : 0;
                size_t last = axis >= 0 ? first + 2 : channels.size();
                for (size_t c = first; c < last; ++c) {
                    begin = std::max(begin, channels[c].free_at);
                }
                if (collective_involves_dead(groups, axis) &&
                    begin + duration > dead_from) {
                    KilledTransfer info;
                    info.cause = permanent->IsChip()
                                     ? FailureCause::kChipDeath
                                     : FailureCause::kLinkDeath;
                    info.dead_link_src = permanent->link_src;
                    info.dead_link_dst = permanent->link_dst;
                    info.fail_time_seconds = dead_from;
                    killed[unit] = info;
                    arrival[Slot(unit)] =
                        std::numeric_limits<double>::infinity();
                    exchange_killed = true;
                } else {
                    for (size_t c = first; c < last; ++c) {
                        channels[c].free_at = begin + duration;
                    }
                    arrival[Slot(unit)] = begin + duration;
                }
            } else {
                arrival[Slot(unit)] = begin + duration;
            }
            if (!exchange_killed) {
                // In-flight interval from the issue time so every
                // Done-wait interval stays a subset of its exchange's
                // in-flight interval (see the permute Start above).
                record(head->name(), TraceKind::kTransferInFlight, time,
                       arrival[Slot(unit)], unit->loop_group);
                result.transferred_bytes += bytes;
            }
            ++result.num_async_transfers;
            ++in_flight;
            outstanding_starts.push_back(unit);
            result.peak_in_flight =
                std::max(result.peak_in_flight, in_flight);
        } else if (unit->IsAsyncDone()) {
            const SchedUnit* start = unit->operands.front();
            auto killed_it = killed.find(start);
            if (killed_it != killed.end()) {
                fail_at(unit, killed_it->second,
                        {start->members.front()->name()});
                return outcome;
            }
            double arrived = arrival[Slot(start)];
            if (arrived > time) {
                record(head->name(), TraceKind::kTransferWait, time,
                       arrived, unit->loop_group);
                result.exposed_comm_seconds += arrived - time;
                time = arrived;
            }
            if (transfer_checks) {
                double chk = receiver_check[Slot(start)];
                record(StrCat("sdc_checksum:", head->name()),
                       TraceKind::kCompute, time, time + chk,
                       unit->loop_group);
                time += chk;
                result.detector_seconds += chk;
                ++result.num_transfer_checksums;
                note_transfer_detection(start->members.front(), time);
            }
            --in_flight;
            outstanding_starts.erase(
                std::remove(outstanding_starts.begin(),
                            outstanding_starts.end(), start),
                outstanding_starts.end());
        } else if (unit->members.size() == 1 &&
                   head->opcode() == HloOpcode::kCollectivePermute) {
            // Synchronous permute: the device blocks for the transfer.
            auto route = RouteOf(mesh_, head);
            if (!route.ok()) return route.status();
            double bytes = static_cast<double>(unit->TransferBytes());
            int64_t direction = route->direction;
            if (direction < 0) {
                direction = channel(route->axis, 0) <=
                                    channel(route->axis, 1)
                                ? 0
                                : 1;
            }
            size_t ch = static_cast<size_t>(route->axis * 2 + direction);
            double wire =
                static_cast<double>(route->hops) * bytes /
                (spec_.link_bandwidth * channels[ch].bw_factor);
            TransferOutcome retries =
                fault_.TransferOutcomeOf(transfer_index++, trial);
            double retry_delay =
                static_cast<double>(retries.failures) * wire +
                retries.backoff_seconds;
            double& free_at = channel(route->axis, direction);
            double begin = std::max(time, free_at);
            double end = begin + retry_delay + wire +
                         static_cast<double>(route->hops) *
                             spec_.link_latency *
                             channels[ch].lat_factor;
            if (retries.exhausted) {
                KilledTransfer info;
                info.cause = FailureCause::kRetryExhaustion;
                auto [ls, ld] =
                    RepresentativeLink(mesh_, route->axis, direction);
                info.dead_link_src = ls;
                info.dead_link_dst = ld;
                info.fail_time_seconds = begin;
                fail_at(unit, info, {});
                return outcome;
            }
            if (permute_involves_dead(head, route->axis, direction) &&
                end > dead_from) {
                KilledTransfer info;
                info.cause = permanent->IsChip()
                                 ? FailureCause::kChipDeath
                                 : FailureCause::kLinkDeath;
                info.dead_link_src = permanent->link_src;
                info.dead_link_dst = permanent->link_dst;
                info.fail_time_seconds = dead_from;
                fail_at(unit, info, {});
                return outcome;
            }
            free_at = begin + retry_delay + wire;
            record(head->name(), TraceKind::kCollective, time, end,
                   unit->loop_group);
            result.exposed_comm_seconds += end - time;
            result.transferred_bytes +=
                bytes * static_cast<double>(1 + retries.failures);
            result.retry.Accumulate(retries);
            time = end;
            if (transfer_checks) {
                // Sync permute: the device is blocked anyway, so both
                // hashes (sender pre-send, receiver post-arrival) land
                // at completion.
                double chk = 2.0 * cost_.ElementwiseBytesSeconds(bytes);
                record(StrCat("sdc_checksum:", head->name()),
                       TraceKind::kCompute, time, time + chk,
                       unit->loop_group);
                time += chk;
                result.detector_seconds += chk;
                result.num_transfer_checksums += 2;
                note_transfer_detection(head, time);
            }
        } else if (unit->members.size() == 1 &&
                   IsBlockingCollective(head->opcode())) {
            const auto& groups = head->attrs().groups;
            int64_t group_size =
                groups.empty() ? 1
                               : static_cast<int64_t>(groups[0].size());
            double duration = cost_.BlockingCollectiveSeconds(head);
            double begin = time;
            int64_t axis = -1;
            if (group_size > 1) {
                axis = mesh_.InferGroupsAxis(groups);
                // Occupy the axis's two directions; a collective whose
                // groups span several axes occupies every channel.
                size_t first = axis >= 0 ? static_cast<size_t>(axis * 2)
                                         : 0;
                size_t last = axis >= 0 ? first + 2 : channels.size();
                for (size_t c = first; c < last; ++c) {
                    begin = std::max(begin, channels[c].free_at);
                }
                if (collective_involves_dead(groups, axis) &&
                    begin + duration > dead_from) {
                    KilledTransfer info;
                    info.cause = permanent->IsChip()
                                     ? FailureCause::kChipDeath
                                     : FailureCause::kLinkDeath;
                    info.dead_link_src = permanent->link_src;
                    info.dead_link_dst = permanent->link_dst;
                    info.fail_time_seconds = dead_from;
                    fail_at(unit, info, {});
                    return outcome;
                }
                for (size_t c = first; c < last; ++c) {
                    channels[c].free_at = begin + duration;
                }
            }
            double end = begin + duration;
            record(head->name(), TraceKind::kCollective, time, end,
                   unit->loop_group);
            result.exposed_comm_seconds += end - time;
            result.transferred_bytes +=
                static_cast<double>(head->shape().byte_size());
            ++result.num_blocking_collectives;
            time = end;
            if (transfer_checks) {
                double chk = 2.0 * cost_.ElementwiseBytesSeconds(
                                       static_cast<double>(
                                           head->shape().byte_size()));
                record(StrCat("sdc_checksum:", head->name()),
                       TraceKind::kCompute, time, time + chk,
                       unit->loop_group);
                time += chk;
                result.detector_seconds += chk;
                result.num_transfer_checksums += 2;
                note_transfer_detection(head, time);
            }
        } else if (unit->latency > 0.0) {
            // Compute kernel (possibly a fusion group); a straggler chip
            // stretches every kernel by the slowest chip's factor.
            double actual = unit->latency / compute_factor;
            record(unit->members.back()->name(), TraceKind::kCompute, time,
                   time + actual, unit->loop_group);
            result.compute_seconds += actual;
            result.straggler_stall_seconds += actual - unit->latency;
            double abft_seconds = 0.0;
            for (const HloInstruction* member : unit->members) {
                if (member->opcode() != HloOpcode::kEinsum) continue;
                result.einsum_flops += static_cast<double>(
                    member->einsum().FlopCount(
                        member->operand(0)->shape(),
                        member->operand(1)->shape()));
                if (!abft_checks) continue;
                int64_t ord = einsum_ordinals.at(member);
                if (!AbftChecked(step_index, ord, num_einsums,
                                 sdc.einsum_check_cadence)) {
                    continue;
                }
                // Fused checksum-row ABFT (Huang-Abraham): the lhs
                // column-sum and the output comparison ride the main
                // einsum's operand/epilogue streaming for free; the
                // residual unfused work is the checksum-row contraction,
                // which re-reads the rhs once — memory-bound, O(rhs)
                // bytes against the contraction's O(MKN) FLOPs, so the
                // relative cost shrinks with the lhs free extent.
                abft_seconds += cost_.ElementwiseBytesSeconds(
                    static_cast<double>(
                        member->operand(1)->shape().byte_size()));
                ++result.num_abft_checks;
                for (const SilentCorruption& c : live_corruptions) {
                    if (c.step == step_index &&
                        c.target == CorruptionTarget::kEinsumOutput &&
                        c.instruction == ord && c.chip >= 0 &&
                        c.chip < mesh_.num_devices()) {
                        note_detection(c, CorruptionDetector::kEinsumAbft,
                                       ord, time + actual + abft_seconds);
                    }
                }
            }
            if (abft_seconds > 0.0) {
                record(StrCat("sdc_abft:", unit->members.back()->name()),
                       TraceKind::kCompute, time + actual,
                       time + actual + abft_seconds, unit->loop_group);
                result.detector_seconds += abft_seconds;
            }
            time += actual + abft_seconds;
        }
    }
    result.step_seconds = time;
    if (!live_corruptions.empty()) {
        outcome.sdc_injected = true;
        if (std::isfinite(detect_time)) {
            outcome.corrupted = true;
            outcome.corruption = detection;
            outcome.corruption_detected_at_seconds = detect_time;
        } else {
            outcome.sdc_escaped = true;
        }
    }
    return outcome;
}

StatusOr<SimResult>
PodSimulator::Run(const HloModule& module, bool collect_trace,
                  int64_t trial) const
{
    auto outcome = RunStep(module, /*step_index=*/0, collect_trace, trial);
    if (!outcome.ok()) return outcome.status();
    if (outcome->failed) {
        // Single-step callers have no recovery path; surface the
        // watchdog's report as an error instead of a partial result.
        return FailedPrecondition(outcome->failure.ToString());
    }
    if (outcome->corrupted) {
        // Containment for single-step callers: a detected corruption is
        // never returned as a (poisoned) timing result. Multi-step
        // callers use RunStep and the recovery layer's rollback path.
        return FailedPrecondition(
            StrCat("silent data corruption detected: ",
                   outcome->corruption.ToString()));
    }
    return std::move(outcome)->result;
}

StatusOr<TrialStats>
PodSimulator::RunTrials(const HloModule& module, int64_t num_trials) const
{
    if (num_trials < 1) {
        return InvalidArgument("RunTrials needs at least one trial");
    }
    std::vector<double> samples;
    samples.reserve(static_cast<size_t>(num_trials));
    int64_t total_retries = 0;
    double total_backoff = 0.0;
    double total_stall = 0.0;
    for (int64_t trial = 0; trial < num_trials; ++trial) {
        auto result = Run(module, /*collect_trace=*/false, trial);
        if (!result.ok()) return result.status();
        samples.push_back(result->step_seconds);
        total_retries += result->retry.retries;
        total_backoff += result->retry.backoff_seconds;
        total_stall += result->straggler_stall_seconds;
    }
    TrialStats stats = TrialStats::FromSamples(std::move(samples));
    stats.total_retries = total_retries;
    stats.total_backoff_seconds = total_backoff;
    stats.total_straggler_stall_seconds = total_stall;
    return stats;
}

}  // namespace overlap
