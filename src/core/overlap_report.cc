#include "core/overlap_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "support/strings.h"

namespace overlap {
namespace {

struct Interval {
    double begin = 0.0;
    double end = 0.0;
};

/** Sorts and merges overlapping intervals in place. */
void
Normalize(std::vector<Interval>* intervals)
{
    std::sort(intervals->begin(), intervals->end(),
              [](const Interval& a, const Interval& b) {
                  return a.begin < b.begin;
              });
    std::vector<Interval> merged;
    for (const Interval& interval : *intervals) {
        if (interval.end <= interval.begin) continue;
        if (!merged.empty() && interval.begin <= merged.back().end) {
            merged.back().end = std::max(merged.back().end, interval.end);
        } else {
            merged.push_back(interval);
        }
    }
    *intervals = std::move(merged);
}

double
Measure(const std::vector<Interval>& normalized)
{
    double total = 0.0;
    for (const Interval& interval : normalized) {
        total += interval.end - interval.begin;
    }
    return total;
}

/** Measure of the intersection of two normalized interval sets. */
double
MeasureIntersection(const std::vector<Interval>& a,
                    const std::vector<Interval>& b)
{
    double total = 0.0;
    size_t i = 0;
    size_t j = 0;
    while (i < a.size() && j < b.size()) {
        double lo = std::max(a[i].begin, b[j].begin);
        double hi = std::min(a[i].end, b[j].end);
        if (hi > lo) total += hi - lo;
        if (a[i].end < b[j].end) {
            ++i;
        } else {
            ++j;
        }
    }
    return total;
}

/** The trace events attributed to one site. */
struct SiteEvents {
    std::vector<Interval> total;    // in-flight transfers + blocking colls
    std::vector<Interval> exposed;  // Done-wait stalls + blocking colls
    std::vector<Interval> compute;
    double first = 0.0;
    double last = 0.0;
    bool any = false;

    void Add(const TraceEvent& ev)
    {
        Interval interval{ev.start_seconds, ev.end_seconds};
        switch (ev.kind) {
          case TraceKind::kTransferInFlight:
              total.push_back(interval);
              break;
          case TraceKind::kTransferWait:
              exposed.push_back(interval);
              break;
          case TraceKind::kCollective:
              total.push_back(interval);
              exposed.push_back(interval);
              break;
          case TraceKind::kCompute:
              compute.push_back(interval);
              break;
        }
        if (!any || ev.start_seconds < first) first = ev.start_seconds;
        if (!any || ev.end_seconds > last) last = ev.end_seconds;
        any = true;
    }
};

/**
 * Fills the sim_* columns from the site's events. Exposed intervals are
 * subsets of total intervals by trace construction (a Done wait lies
 * inside its Start's issue..arrival window; blocking collectives are in
 * both sets), so hidden is computed as total − (total ∩ exposed): exact
 * interval arithmetic, never negative, and the hidden+exposed==total
 * invariant the tests assert is a real check on that construction.
 */
void
FillSimColumns(SiteEvents events, SiteOverlapReport* site)
{
    Normalize(&events.total);
    Normalize(&events.exposed);
    Normalize(&events.compute);
    site->sim_total_comm_seconds = Measure(events.total);
    site->sim_exposed_comm_seconds = Measure(events.exposed);
    site->sim_hidden_comm_seconds =
        site->sim_total_comm_seconds -
        MeasureIntersection(events.total, events.exposed);
    site->sim_hidden_fraction =
        site->sim_total_comm_seconds > 0.0
            ? site->sim_hidden_comm_seconds / site->sim_total_comm_seconds
            : 0.0;
    site->sim_compute_seconds = Measure(events.compute);
    site->sim_span_seconds = events.any ? events.last - events.first : 0.0;
}

/** Doubles at enough digits that hidden + exposed == total survives a
 * round-trip through the JSON (the default 6 significant digits do
 * not). */
std::string
Num(double value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.12g", value);
    return buffer;
}

std::string
JsonBool(bool value)
{
    return value ? "true" : "false";
}

}  // namespace

std::string
SiteOverlapReport::ToJson() const
{
    return StrCat(
        "{\"collective\":\"", JsonEscape(collective), "\",\"einsum\":\"",
        JsonEscape(einsum), "\",\"decomposed\":", JsonBool(decomposed),
        ",\"lowered_to_unidirectional\":",
        JsonBool(lowered_to_unidirectional), ",\"reason\":\"",
        JsonEscape(reason), "\",\"loop_group\":", loop_group,
        ",\"predicted\":{\"comp_t\":", Num(cost.comp_t), ",\"comm_t\":",
        Num(cost.comm_t), ",\"comm_t_ring\":", Num(cost.comm_t_ring),
        ",\"extra_t\":", Num(cost.extra_t),
        ",\"original_seconds\":", Num(cost.OriginalSeconds()),
        ",\"overlapped_seconds\":", Num(cost.OverlappedSeconds()),
        ",\"speedup\":", Num(PredictedSpeedup()),
        ",\"hidden_fraction\":", Num(PredictedHiddenFraction()),
        "},\"simulated\":{\"total_comm_seconds\":",
        Num(sim_total_comm_seconds),
        ",\"exposed_comm_seconds\":", Num(sim_exposed_comm_seconds),
        ",\"hidden_comm_seconds\":", Num(sim_hidden_comm_seconds),
        ",\"hidden_fraction\":", Num(sim_hidden_fraction),
        ",\"compute_seconds\":", Num(sim_compute_seconds),
        ",\"span_seconds\":", Num(sim_span_seconds),
        "},\"error\":{\"graded\":", JsonBool(has_prediction_error),
        ",\"hidden_fraction_error\":", Num(hidden_fraction_error), "}}");
}

std::string
OverlapReport::ToJson() const
{
    std::vector<std::string> site_json;
    site_json.reserve(sites.size());
    for (const SiteOverlapReport& site : sites) {
        site_json.push_back(site.ToJson());
    }
    return StrCat(
        "{\"sites\":[", StrJoin(site_json, ","),
        "],\"step_seconds\":", Num(step_seconds),
        ",\"total_comm_seconds\":", Num(total_comm_seconds),
        ",\"exposed_comm_seconds\":", Num(exposed_comm_seconds),
        ",\"hidden_comm_seconds\":", Num(hidden_comm_seconds),
        ",\"hidden_fraction\":", Num(hidden_fraction),
        ",\"predicted_speedup\":", Num(predicted_speedup),
        ",\"baseline_step_seconds\":", Num(baseline_step_seconds),
        ",\"actual_speedup\":", Num(actual_speedup),
        ",\"mean_abs_hidden_fraction_error\":",
        Num(mean_abs_hidden_fraction_error),
        ",\"error_sites\":", error_sites,
        ",\"decomposed_sites\":", decomposed_sites(), "}");
}

std::string
OverlapReport::ToString() const
{
    std::string out = StrCat(
        "overlap report: step ", HumanTime(step_seconds), ", comm ",
        HumanTime(total_comm_seconds), " total / ",
        HumanTime(exposed_comm_seconds), " exposed (",
        hidden_fraction * 100.0, "% hidden)\n");
    for (const SiteOverlapReport& site : sites) {
        out += StrCat("  site ", site.collective, " + ", site.einsum, " [",
                      site.reason, "]: predicted speedup ",
                      site.PredictedSpeedup(), "x / hidden ",
                      site.PredictedHiddenFraction() * 100.0,
                      "%, simulated hidden ",
                      site.sim_hidden_fraction * 100.0, "%");
        if (site.has_prediction_error) {
            out += StrCat(" (err ",
                          site.hidden_fraction_error * 100.0, "pp)");
        }
        out += "\n";
    }
    if (error_sites > 0) {
        out += StrCat("  mean |hidden-fraction error| ",
                      mean_abs_hidden_fraction_error * 100.0, "pp over ",
                      error_sites, " graded sites\n");
    }
    return out;
}

StatusOr<OverlapReport>
BuildOverlapReport(const CompileReport& compile, const SimResult& sim)
{
    if (sim.trace.empty()) {
        return InvalidArgument(
            "overlap report needs a traced simulation (run the "
            "simulator with collect_trace)");
    }

    OverlapReport report;
    report.step_seconds = sim.step_seconds;

    // Step-level roll-up across every event in the trace.
    SiteEvents all;
    for (const TraceEvent& ev : sim.trace) all.Add(ev);
    SiteOverlapReport rollup;
    FillSimColumns(std::move(all), &rollup);
    report.total_comm_seconds = rollup.sim_total_comm_seconds;
    report.exposed_comm_seconds = rollup.sim_exposed_comm_seconds;
    report.hidden_comm_seconds = rollup.sim_hidden_comm_seconds;
    report.hidden_fraction = rollup.sim_hidden_fraction;

    double predicted_benefit = 0.0;
    for (const SiteDecision& decision : compile.decompose.decisions) {
        SiteOverlapReport site;
        site.collective = decision.collective;
        site.einsum = decision.einsum;
        site.decomposed = decision.decomposed;
        site.lowered_to_unidirectional =
            decision.lowered_to_unidirectional;
        site.reason = decision.reason;
        site.loop_group = decision.loop_group;
        site.cost = decision.cost;

        // Attribute trace events: decomposed sites by the loop group the
        // emitter stamped on every loop instruction, blocking sites by
        // the surviving collective's instruction name.
        SiteEvents events;
        for (const TraceEvent& ev : sim.trace) {
            bool mine = site.decomposed
                            ? (site.loop_group >= 0 &&
                               ev.loop_group == site.loop_group)
                            : (ev.kind == TraceKind::kCollective &&
                               ev.label == site.collective);
            if (mine) events.Add(ev);
        }
        FillSimColumns(std::move(events), &site);

        // Grade the prediction where the trace measured the predicted
        // structure: the replay models the emitted loop, so only
        // decomposed sites that moved bytes compare like with like.
        // (Rejected sites are graded by bench/overlap_report, which
        // re-compiles them with the gate forced open.)
        if (site.decomposed && site.sim_total_comm_seconds > 0.0) {
            site.hidden_fraction_error =
                site.PredictedHiddenFraction() - site.sim_hidden_fraction;
            site.has_prediction_error = true;
            report.mean_abs_hidden_fraction_error +=
                std::fabs(site.hidden_fraction_error);
            ++report.error_sites;
        }

        if (site.decomposed) {
            predicted_benefit +=
                site.cost.OriginalSeconds() - site.cost.OverlappedSeconds();
        }
        report.sites.push_back(std::move(site));
    }
    report.predicted_speedup =
        report.step_seconds > 0.0
            ? (report.step_seconds + predicted_benefit) /
                  report.step_seconds
            : 1.0;
    if (report.error_sites > 0) {
        report.mean_abs_hidden_fraction_error /=
            static_cast<double>(report.error_sites);
    }
    return report;
}

}  // namespace overlap
