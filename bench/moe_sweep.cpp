/**
 * @file
 * MoE AllToAll overlap sweep (DESIGN.md §18): what the two §18
 * treatments of the expert dispatch/combine exchange buy over the
 * blocking AllToAll, across pod sizes and expert counts. Three arms
 * per point, all with the rest of the overlap pipeline (AG/RS
 * decomposition, fusion, bottom-up scheduling) identical so the delta
 * is the A2A treatment alone:
 *
 *  - blocking:   every AllToAll stays one synchronous collective
 *                (DecomposeOptions::all_to_all = false) — GLaM's
 *                exposed-exchange regime from §6.1.
 *  - decomposed: the §5.5-gated ring decomposition splits each
 *                gate-profitable AllToAll into per-peer chunk permutes
 *                interleaved with the expert einsum's partials.
 *  - pipelined:  the token stream is split into micro-batches
 *                (ModelConfig::moe_micro_batches), each with its own
 *                dispatch -> expert -> combine chain, and the blocking
 *                AllToAlls become AllToAllStart/Done pairs
 *                (CompilerOptions::async_all_to_all) so micro-batch
 *                k's exchange hides behind k±1's expert compute.
 *
 * The sweep fails (exit 1) unless at least one point simulates the
 * decomposed arm faster than blocking AND at least one point simulates
 * the pipelined arm faster than blocking — the §18 acceptance gate.
 * Emits JSON (--json for machine-readable output only, --quick for the
 * sanitize-suite subset, --out FILE to also write the JSON to FILE).
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace overlap;

namespace {

/** One (pod size, expert count) grid point: a scaled-down GLaM layer.
 * The expert axis is mesh y (the AllToAll ring); mesh x carries the
 * feature sharding. ff_dim keeps the per-device expert matmul wide
 * enough (ff_dim / mesh_x = 8192) that the partial einsums can hide
 * the ring's chunk permutes — the §18 win condition. */
ModelConfig
MoeModel(int64_t mesh_y, int64_t experts, int64_t micro_batches)
{
    ModelConfig config;
    config.name = StrCat("moe_", 4 * mesh_y, "chip_", experts, "e");
    config.kind = ModelKind::kMoe;
    config.num_layers = 24;
    config.model_dim = 4096;
    config.ff_dim = 32768;
    config.batch_size = 16;
    config.seq_len = 1024;
    config.mesh_x = 4;
    config.mesh_y = mesh_y;
    config.num_chips = config.mesh_x * config.mesh_y;
    config.num_experts = experts;
    config.moe_micro_batches = micro_batches;
    return config;
}

struct MoePoint {
    int64_t chips = 0;
    int64_t mesh_y = 0;
    int64_t experts = 0;
    int64_t micro_batches = 0;
    double blocking_seconds = 0.0;
    double decomposed_seconds = 0.0;
    double pipelined_seconds = 0.0;
    /// Ring-decomposed A2A loops the gate accepted (decomposed arm).
    int64_t ring_sites = 0;
    /// A2A sites the gate judged and declined (decomposed arm).
    int64_t rejected_sites = 0;
    /// Blocking AllToAlls split into Start/Done pairs (pipelined arm).
    int64_t async_pairs = 0;
    std::string error;

    double decomposed_speedup() const
    {
        return blocking_seconds / decomposed_seconds;
    }
    double pipelined_speedup() const
    {
        return blocking_seconds / pipelined_seconds;
    }
};

std::string
PointJson(const MoePoint& p)
{
    if (!p.error.empty()) {
        return StrCat("    {\"chips\": ", p.chips,
                      ", \"error\": \"", p.error, "\"}");
    }
    return StrCat(
        "    {\"chips\": ", p.chips, ", \"mesh\": \"4x", p.mesh_y,
        "\", \"experts\": ", p.experts,
        ", \"micro_batches\": ", p.micro_batches,
        ", \"blocking_s\": ", p.blocking_seconds,
        ", \"decomposed_s\": ", p.decomposed_seconds,
        ", \"pipelined_s\": ", p.pipelined_seconds,
        ", \"decomposed_speedup\": ", p.decomposed_speedup(),
        ", \"pipelined_speedup\": ", p.pipelined_speedup(),
        ", \"ring_sites\": ", p.ring_sites,
        ", \"rejected_sites\": ", p.rejected_sites,
        ", \"async_pairs\": ", p.async_pairs, "}");
}

StatusOr<MoePoint>
RunPoint(int64_t mesh_y, int64_t experts, int64_t micro_batches)
{
    MoePoint point;
    point.mesh_y = mesh_y;
    point.experts = experts;
    point.micro_batches = micro_batches;

    // Blocking exchange: full overlap pipeline, A2A left synchronous.
    ModelConfig config = MoeModel(mesh_y, experts, /*micro_batches=*/1);
    point.chips = config.num_chips;
    CompilerOptions blocking_options;
    blocking_options.decompose.all_to_all = false;
    auto blocking = SimulateModelStep(config, blocking_options);
    if (!blocking.ok()) return blocking.status();
    point.blocking_seconds = blocking->step_seconds;

    // Ring decomposition, §5.5 gate deciding per site.
    auto decomposed = SimulateModelStep(config, CompilerOptions());
    if (!decomposed.ok()) return decomposed.status();
    point.decomposed_seconds = decomposed->step_seconds;
    point.ring_sites = decomposed->compile.decompose.all_to_all_sites;
    for (const SiteDecision& d :
         decomposed->compile.decompose.decisions) {
        if (d.cost.shape.structure == LoopStructure::kAllToAllDispatch ||
            d.cost.shape.structure == LoopStructure::kAllToAllCombine) {
            if (!d.decomposed) ++point.rejected_sites;
        }
    }

    // Micro-batch pipelining with async Start/Done exchanges.
    ModelConfig pipelined_config =
        MoeModel(mesh_y, experts, micro_batches);
    CompilerOptions pipelined_options;
    pipelined_options.decompose.all_to_all = false;
    pipelined_options.async_all_to_all = true;
    auto pipelined =
        SimulateModelStep(pipelined_config, pipelined_options);
    if (!pipelined.ok()) return pipelined.status();
    point.pipelined_seconds = pipelined->step_seconds;
    point.async_pairs = pipelined->compile.async_all_to_alls;
    return point;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool json_only = false;
    bool quick = false;
    std::string out_file;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json_only = true;
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_file = argv[++i];
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }

    std::vector<int64_t> rings = quick ? std::vector<int64_t>{4, 8}
                                       : std::vector<int64_t>{4, 8, 16};
    std::vector<int64_t> expert_counts =
        quick ? std::vector<int64_t>{16} : std::vector<int64_t>{16, 64};
    const int64_t micro_batches = 4;

    if (!json_only) {
        bench::Banner("MoE AllToAll overlap: blocking vs ring-decomposed "
                      "vs micro-batch pipelined",
                      "DESIGN.md §18; the GLaM discussion of §6.1");
        std::printf("%6s %6s %8s  %10s %10s %10s  %8s %8s  %5s %5s\n",
                    "chips", "mesh", "experts", "blocking", "decomp",
                    "pipeline", "dec-spd", "pip-spd", "rings", "async");
    }

    std::vector<MoePoint> points;
    bool harness_error = false;
    for (int64_t ring : rings) {
        for (int64_t experts : expert_counts) {
            auto point = RunPoint(ring, experts, micro_batches);
            if (!point.ok()) {
                MoePoint failed;
                failed.chips = 4 * ring;
                failed.error = point.status().message();
                points.push_back(failed);
                harness_error = true;
                std::fprintf(stderr, "FAIL %lldx: %s\n",
                             static_cast<long long>(ring),
                             point.status().ToString().c_str());
                continue;
            }
            points.push_back(*point);
            if (!json_only) {
                std::printf(
                    "%6lld   4x%-3lld %8lld  %10s %10s %10s  %7.3fx "
                    "%7.3fx  %5lld %5lld\n",
                    static_cast<long long>(point->chips),
                    static_cast<long long>(point->mesh_y),
                    static_cast<long long>(point->experts),
                    HumanTime(point->blocking_seconds).c_str(),
                    HumanTime(point->decomposed_seconds).c_str(),
                    HumanTime(point->pipelined_seconds).c_str(),
                    point->decomposed_speedup(),
                    point->pipelined_speedup(),
                    static_cast<long long>(point->ring_sites),
                    static_cast<long long>(point->async_pairs));
            }
        }
    }

    // §18 acceptance: each treatment must beat the blocking exchange
    // somewhere on the grid, and the decomposed arm must actually have
    // emitted ring loops (a gate that rejects everything would "pass"
    // trivially through simulation noise).
    bool decomposed_win = false;
    bool pipelined_win = false;
    bool any_ring_sites = false;
    for (const MoePoint& p : points) {
        if (!p.error.empty()) continue;
        if (p.ring_sites > 0 &&
            p.decomposed_seconds < p.blocking_seconds) {
            decomposed_win = true;
        }
        if (p.async_pairs > 0 &&
            p.pipelined_seconds < p.blocking_seconds) {
            pipelined_win = true;
        }
        if (p.ring_sites > 0) any_ring_sites = true;
    }

    std::vector<std::string> rows;
    rows.reserve(points.size());
    for (const MoePoint& p : points) rows.push_back(PointJson(p));
    std::string json = StrCat(
        "{\n  \"micro_batches\": ", micro_batches,
        ",\n  \"decomposed_win\": ", decomposed_win ? "true" : "false",
        ",\n  \"pipelined_win\": ", pipelined_win ? "true" : "false",
        ",\n  \"points\": [\n", StrJoin(rows, ",\n"), "\n  ]\n}\n");
    std::printf("%s", json.c_str());
    if (!out_file.empty()) {
        std::ofstream out(out_file);
        out << json;
    }

    if (harness_error) return 1;
    if (!any_ring_sites) {
        std::fprintf(stderr,
                     "FAIL: the gate accepted no A2A ring site\n");
        return 1;
    }
    if (!decomposed_win || !pipelined_win) {
        std::fprintf(stderr,
                     "FAIL: no grid point beat the blocking exchange "
                     "(decomposed_win=%d pipelined_win=%d)\n",
                     decomposed_win, pipelined_win);
        return 1;
    }
    return 0;
}
