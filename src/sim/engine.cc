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
GroupsInvolveChip(const ReplicaGroups& groups, int64_t chip)
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
 *  - an async Done whose Start is not scheduled
 *    before it (orphaned pair / permute cycle),
 *  - an async Start with no matching Done (its transfer and hardware
 *    sync flag never retire),
 *  - async in-flight budget starvation: a Start issued while every
 *    hardware sync flag is held by a transfer whose Done is scheduled
 *    later (the device can never reach the Done that would free one).
 */
Status
CheckNoDeadlock(const std::vector<const SchedUnit*>& order,
                size_t num_units, int64_t max_in_flight)
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
    std::vector<const SchedUnit*> order =
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
    // The mesh axis each distinct group list runs along: a list is
    // shared by every collective along one axis, so it is matched
    // against the mesh once per run.
    std::unordered_map<const ReplicaGroups::List*, int64_t> groups_axes;
    auto groups_axis = [&](const ReplicaGroups& groups) -> int64_t {
        auto [it, inserted] = groups_axes.try_emplace(groups.get(), -1);
        if (inserted) it->second = mesh_.InferGroupsAxis(groups.list());
        return it->second;
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

    // Per-unit state by SchedUnit::id: an issued exchange's arrival
    // time. Transfers killed by a fault are rare and stay in a map.
    const size_t num_units = graph.units().size();
    std::vector<double> arrival(num_units, 0.0);
    std::unordered_map<const SchedUnit*, KilledTransfer> killed;
    std::vector<const SchedUnit*> outstanding_starts;
    StepOutcome outcome;
    SimResult& result = outcome.result;
    double time = 0.0;

    // The watchdog path: the device is stuck at `blocked` waiting for the
    // exchange `start` issued, which can never arrive; report instead of
    // spinning.
    auto fail_at = [&](const SchedUnit* blocked, const SchedUnit* start,
                       const KilledTransfer& info) {
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
        if (start != blocked) {
            failure.blocked_instructions.push_back(
                start->members.front()->name());
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
    auto account_memory = [&](const SchedUnit* unit) {
        live_bytes += unit->output_bytes;
        result.peak_memory_bytes =
            std::max(result.peak_memory_bytes, live_bytes);
        for (const SchedUnit* operand : unit->operands) {
            if (--remaining_readers[Slot(operand)] == 0) {
                live_bytes -= operand->output_bytes;
            }
        }
        if (unit->users.empty()) live_bytes -= unit->output_bytes;
    };

    auto record = [&](const std::string& label, TraceKind kind,
                      double start, double end, int64_t loop_group) {
        if (collect_trace && end > start) {
            result.trace.push_back({label, kind, start, end, loop_group});
        }
    };
    // A detector's kernel, labeled "<detector><instruction>": the label
    // is built only when a trace is kept.
    auto record_check = [&](const char* detector, const std::string& name,
                            double start, double end, int64_t loop_group) {
        if (collect_trace && end > start) {
            result.trace.push_back({detector + name, TraceKind::kCompute,
                                    start, end, loop_group});
        }
    };

    // ---- Issue and wait (DESIGN.md §20) ------------------------------
    //
    // Every exchange is two halves. The start half hashes the payload on
    // the sender (SDC detectors on) and issues the exchange: it takes its
    // links from the current time and its payload arrives at `arrival`,
    // unless a fault kills it. The wait half fails through the watchdog
    // if the transfer was killed, else blocks until the arrival and
    // hashes the payload on the receiver. An async Start runs the start
    // half and its Done the wait half; a sync permute or blocking
    // collective runs both back to back. One rule kills every kind: a
    // transfer dies when the death comes before its arrival, and a killed
    // transfer charges no bytes and no retries.
    //
    // SDC payload hashing at `unit` over the payload of the exchange
    // `start` issued; `received` marks the receiver's hash, which checks
    // the payload.
    auto hash_payload = [&](const SchedUnit* unit, const SchedUnit* start,
                            bool received) {
        const HloInstruction* payload = start->members.front();
        const double seconds = cost_.ElementwiseBytesSeconds(
            static_cast<double>(payload->shape().byte_size()));
        record_check("sdc_checksum:", unit->members.front()->name(), time,
                     time + seconds, unit->loop_group);
        time += seconds;
        result.detector_seconds += seconds;
        ++result.num_transfer_checksums;
        if (received) note_transfer_detection(payload, time);
    };
    int64_t transfer_index = 0;
    // The start half. A routed permute queues on one (axis, direction)
    // channel and draws the fault model's retries; a group collective
    // takes both channels of its axis for the blocking form's duration,
    // or every channel when its groups span several axes.
    auto issue = [&](const SchedUnit* unit) -> Status {
        if (transfer_checks) hash_payload(unit, unit, /*received=*/false);
        const HloInstruction* head = unit->members.front();
        const double bytes = static_cast<double>(head->shape().byte_size());
        const bool routed =
            head->collective_opcode() == HloOpcode::kCollectivePermute;
        double& arrives = arrival[Slot(unit)];
        TransferOutcome retries;
        double wire_end = time;
        bool needs_dead = false;  // it needs the permanently dead entity
        size_t first = 0;         // the channels it occupies
        size_t last = 0;
        if (routed) {
            auto route = RouteOf(mesh_, head);
            if (!route.ok()) return route.status();
            size_t axis_channels = static_cast<size_t>(route->axis * 2);
            int64_t direction = route->direction;
            if (direction < 0) {
                direction = channels[axis_channels].free_at <=
                                    channels[axis_channels + 1].free_at
                                ? 0
                                : 1;
            }
            first = axis_channels + static_cast<size_t>(direction);
            last = first + 1;
            const LinkChannel& ch = channels[first];
            double hops = static_cast<double>(route->hops);
            double wire =
                hops * bytes / (spec_.link_bandwidth * ch.bw_factor);
            retries = fault_.TransferOutcomeOf(transfer_index++, trial);
            double begin = std::max(time, ch.free_at);
            wire_end = begin +
                       (static_cast<double>(retries.failures) * wire +
                        retries.backoff_seconds) +
                       wire;
            arrives = wire_end + hops * spec_.link_latency * ch.lat_factor;
            if (retries.exhausted) {
                auto [src, dst] =
                    RepresentativeLink(mesh_, route->axis, direction);
                killed[unit] = KilledTransfer{FailureCause::kRetryExhaustion,
                                              src, dst, begin};
                return Status::Ok();
            }
            if (permanent != nullptr && permanent->IsChip()) {
                for (const auto& [src, dst] :
                     head->attrs().source_target_pairs) {
                    needs_dead |= src == permanent->chip ||
                                  dst == permanent->chip;
                }
            } else if (permanent != nullptr) {
                needs_dead = ChannelUsesLink(mesh_, route->axis, direction,
                                             permanent->link_src,
                                             permanent->link_dst);
            }
        } else {
            const auto& groups = head->attrs().groups;
            double begin = time;
            if (!groups.empty() && groups[0].size() > 1) {
                int64_t axis = groups_axis(groups);
                first = axis >= 0 ? static_cast<size_t>(axis * 2) : 0;
                last = axis >= 0 ? first + 2 : channels.size();
                for (size_t c = first; c < last; ++c) {
                    begin = std::max(begin, channels[c].free_at);
                }
                if (permanent != nullptr && permanent->IsChip()) {
                    needs_dead = GroupsInvolveChip(groups, permanent->chip);
                } else if (permanent != nullptr) {
                    needs_dead =
                        axis < 0 ||
                        ChannelUsesLink(mesh_, axis, 0, permanent->link_src,
                                        permanent->link_dst) ||
                        ChannelUsesLink(mesh_, axis, 1, permanent->link_src,
                                        permanent->link_dst);
                }
            }
            wire_end = begin + cost_.BlockingCollectiveSeconds(head);
            arrives = wire_end;
        }
        if (needs_dead && arrives > dead_from) {
            killed[unit] = KilledTransfer{permanent->IsChip()
                                              ? FailureCause::kChipDeath
                                              : FailureCause::kLinkDeath,
                                          permanent->link_src,
                                          permanent->link_dst, dead_from};
            return Status::Ok();
        }
        for (size_t c = first; c < last; ++c) channels[c].free_at = wire_end;
        result.transferred_bytes +=
            bytes * static_cast<double>(1 + retries.failures);
        if (routed) result.retry.Accumulate(retries);
        return Status::Ok();
    };
    // The wait half, at `unit`, of the exchange `start` issued. False
    // when the transfer was killed and the step has failed.
    auto wait = [&](const SchedUnit* unit, const SchedUnit* start,
                    TraceKind kind) {
        auto it = killed.find(start);
        if (it != killed.end()) {
            fail_at(unit, start, it->second);
            return false;
        }
        const double until = arrival[Slot(start)];
        if (until > time) {
            record(unit->members.front()->name(), kind, time, until,
                   unit->loop_group);
            result.exposed_comm_seconds += until - time;
            time = until;
        }
        if (transfer_checks) hash_payload(unit, start, /*received=*/true);
        return true;
    };

    for (const SchedUnit* unit : order) {
        const HloInstruction* head = unit->members.front();
        account_memory(unit);
        if (unit->IsAsyncStart()) {
            OVERLAP_RETURN_IF_ERROR(issue(unit));
            // The device does not stall at a Start: a transfer that can
            // never arrive fails the matching Done instead. A live one
            // gets its in-flight interval on the transfer lane, from the
            // issue time (not when the links take it) to arrival, so
            // every Done-wait interval stays a subset of it: the overlap
            // report's hidden + exposed == total accounting relies on
            // that.
            if (killed.count(unit) == 0) {
                record(head->name(), TraceKind::kTransferInFlight, time,
                       arrival[Slot(unit)], unit->loop_group);
            }
            ++result.num_async_transfers;
            outstanding_starts.push_back(unit);
            result.peak_in_flight =
                std::max(result.peak_in_flight,
                         static_cast<int64_t>(outstanding_starts.size()));
        } else if (unit->IsAsyncDone()) {
            const SchedUnit* start = unit->operands.front();
            if (!wait(unit, start, TraceKind::kTransferWait)) return outcome;
            outstanding_starts.erase(
                std::remove(outstanding_starts.begin(),
                            outstanding_starts.end(), start),
                outstanding_starts.end());
        } else if (unit->members.size() == 1 &&
                   IsExchangeOp(head->opcode())) {
            // A sync permute or blocking collective: both halves at once.
            OVERLAP_RETURN_IF_ERROR(issue(unit));
            if (!wait(unit, unit, TraceKind::kCollective)) return outcome;
            if (IsBlockingCollective(head->opcode())) {
                ++result.num_blocking_collectives;
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
                record_check("sdc_abft:", unit->members.back()->name(),
                             time + actual, time + actual + abft_seconds,
                             unit->loop_group);
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
