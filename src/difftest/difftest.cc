#include "difftest/difftest.h"

#include <algorithm>
#include <random>
#include <set>
#include <utility>

#include "core/overlap_compiler.h"
#include "hlo/builder.h"
#include "hlo/verifier.h"
#include "interp/evaluator.h"
#include "passes/async.h"
#include "passes/decompose.h"
#include "sim/engine.h"
#include "support/strings.h"
#include "support/thread_pool.h"
#include "tensor/sharding.h"

namespace overlap {
namespace difftest {
namespace {

StatusOr<DType>
DTypeFromName(const std::string& name)
{
    if (name == "f32") return DType::kF32;
    if (name == "bf16") return DType::kBF16;
    if (name == "s32") return DType::kS32;
    if (name == "pred") return DType::kPred;
    return InvalidArgument(StrCat("unknown dtype '", name, "'"));
}

}  // namespace

const char*
SiteCaseName(SiteCase c)
{
    switch (c) {
      case SiteCase::kAllGatherFree: return "ag_free";
      case SiteCase::kAllGatherContracting: return "ag_contract";
      case SiteCase::kAllGatherBatch: return "ag_batch";
      case SiteCase::kReduceScatter: return "rs";
      case SiteCase::kAllToAll: return "a2a";
    }
    OVERLAP_CHECK(false);
    return "";
}

Mesh
SiteSpec::mesh() const
{
    OVERLAP_CHECK(!mesh_dims.empty() && mesh_dims.size() <= 2);
    return mesh_dims.size() == 1 ? Mesh(mesh_dims[0])
                                 : Mesh(mesh_dims[0], mesh_dims[1]);
}

int64_t
SiteSpec::ring_size() const
{
    return mesh_dims.at(static_cast<size_t>(axis));
}

int64_t
SiteSpec::reduction_extent() const
{
    switch (site_case) {
      case SiteCase::kAllGatherFree:
      case SiteCase::kAllGatherBatch: return contract;
      case SiteCase::kAllGatherContracting:
          return ring_size() * shard_extent;
      case SiteCase::kReduceScatter: return ring_size() * contract;
      // The A2A-adjacent einsum contracts only the local 'd' label.
      case SiteCase::kAllToAll: return contract;
    }
    OVERLAP_CHECK(false);
    return 1;
}

std::string
SiteSpec::ToString() const
{
    return StrCat("case=", SiteCaseName(site_case),
                  " mesh=", StrJoin(mesh_dims, "x"), " axis=", axis,
                  " side=", side, " extent=", shard_extent,
                  " free0=", free0, " free1=", free1,
                  " contract=", contract, " dtype=", DTypeName(dtype),
                  " seed=", data_seed);
}

StatusOr<SiteSpec>
SiteSpec::Parse(const std::string& line)
{
    SiteSpec spec;
    bool saw_case = false;
    for (const std::string& field : StrSplit(line, ' ')) {
        if (field.empty()) continue;
        size_t eq = field.find('=');
        if (eq == std::string::npos) {
            return InvalidArgument(
                StrCat("bad site-spec field '", field, "'"));
        }
        std::string key = field.substr(0, eq);
        std::string value = field.substr(eq + 1);
        auto as_int = [&value]() -> int64_t {
            return std::strtoll(value.c_str(), nullptr, 10);
        };
        if (key == "case") {
            saw_case = true;
            if (value == "ag_free") {
                spec.site_case = SiteCase::kAllGatherFree;
            } else if (value == "ag_contract") {
                spec.site_case = SiteCase::kAllGatherContracting;
            } else if (value == "ag_batch") {
                spec.site_case = SiteCase::kAllGatherBatch;
            } else if (value == "rs") {
                spec.site_case = SiteCase::kReduceScatter;
            } else if (value == "a2a") {
                spec.site_case = SiteCase::kAllToAll;
            } else {
                return InvalidArgument(
                    StrCat("unknown site case '", value, "'"));
            }
        } else if (key == "mesh") {
            spec.mesh_dims.clear();
            for (const std::string& dim : StrSplit(value, 'x')) {
                spec.mesh_dims.push_back(
                    std::strtoll(dim.c_str(), nullptr, 10));
            }
            if (spec.mesh_dims.empty() || spec.mesh_dims.size() > 2) {
                return InvalidArgument(
                    StrCat("bad mesh '", value, "'"));
            }
        } else if (key == "axis") {
            spec.axis = as_int();
        } else if (key == "side") {
            spec.side = as_int();
        } else if (key == "extent") {
            spec.shard_extent = as_int();
        } else if (key == "free0") {
            spec.free0 = as_int();
        } else if (key == "free1") {
            spec.free1 = as_int();
        } else if (key == "contract") {
            spec.contract = as_int();
        } else if (key == "dtype") {
            auto dtype = DTypeFromName(value);
            if (!dtype.ok()) return dtype.status();
            spec.dtype = dtype.value();
        } else if (key == "seed") {
            spec.data_seed = std::strtoull(value.c_str(), nullptr, 10);
        } else {
            return InvalidArgument(
                StrCat("unknown site-spec key '", key, "'"));
        }
    }
    if (!saw_case) return InvalidArgument("site spec missing 'case='");
    if (spec.axis < 0 ||
        spec.axis >= static_cast<int64_t>(spec.mesh_dims.size())) {
        return InvalidArgument("site-spec axis out of range");
    }
    return spec;
}

SiteSpec
GenerateSiteSpec(uint64_t seed, int64_t index)
{
    return GenerateSiteSpecForCase(
        seed, index, static_cast<SiteCase>(index % kNumSiteCases));
}

SiteSpec
GenerateSiteSpecForCase(uint64_t seed, int64_t index, SiteCase site_case)
{
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL +
                        static_cast<uint64_t>(index) + 1);
    auto pick = [&rng](int64_t lo, int64_t hi) -> int64_t {
        return lo + static_cast<int64_t>(rng() % static_cast<uint64_t>(
                                                     hi - lo + 1));
    };
    SiteSpec spec;
    spec.site_case = site_case;
    // Stratified parity: indices 0-4 even extents, 5-9 odd, repeating.
    bool odd = (index / kNumSiteCases) % 2 == 1;
    spec.shard_extent = odd ? (pick(0, 1) == 0 ? 1 : 3)
                            : (pick(0, 1) == 0 ? 2 : 4);
    int64_t ring = pick(2, 8);
    if (pick(0, 3) == 0) {
        // Torus subgroup ring: the collective runs over the second axis.
        spec.mesh_dims = {2, ring};
        spec.axis = 1;
    } else {
        spec.mesh_dims = {ring};
        spec.axis = 0;
    }
    spec.side = pick(0, 1);
    spec.free0 = pick(1, 5);
    spec.free1 = pick(1, 5);
    spec.contract = pick(1, 4);
    spec.dtype = pick(0, 3) == 0 ? DType::kBF16 : DType::kF32;
    spec.data_seed = rng();
    return spec;
}

const std::vector<DecomposeVariant>&
AllDecomposeVariants()
{
    static const std::vector<DecomposeVariant>* variants =
        new std::vector<DecomposeVariant>{
            {"uni", false, false},
            {"uni_unroll", true, false},
            {"bidi", false, true},
            {"bidi_unroll", true, true},
        };
    return *variants;
}

StatusOr<DecomposeVariant>
FindVariant(const std::string& name)
{
    for (const DecomposeVariant& v : AllDecomposeVariants()) {
        if (name == v.name) return v;
    }
    return InvalidArgument(StrCat("unknown variant '", name, "'"));
}

namespace {

/** Global operand shapes and partitioning of one site's module. */
struct SiteShapes {
    std::string einsum_spec;
    Shape lhs_global;
    Shape rhs_global;
    /// Per-operand shardings (replicated where not partitioned).
    TensorSharding lhs_sharding;
    TensorSharding rhs_sharding;
    /// AllGather cases: the operand carrying the gathered label and the
    /// dimension it occupies there.
    int64_t gathered_dim = 0;
    int64_t gathered_side = 0;
    /// ReduceScatter case: the scattered output dimension.
    int64_t rs_dim = 0;
};

StatusOr<SiteShapes>
ShapesFor(const SiteSpec& spec)
{
    const int64_t n = spec.ring_size();
    if (n < 2) return InvalidArgument("ring size must be >= 2");
    if (spec.shard_extent < 1 || spec.free0 < 1 || spec.free1 < 1 ||
        spec.contract < 1) {
        return InvalidArgument("site-spec extents must be >= 1");
    }
    SiteShapes shapes;
    if (spec.site_case == SiteCase::kAllToAll) {
        // "td,dh->th" with the token dimension 't' exchanged all-to-all
        // along the ring: each device holds n blocks of `shard_extent`
        // tokens, so the per-device extent n * shard_extent is always
        // divisible by the group size. `side` 0 places the AllToAll
        // before the einsum (dispatch); 1 after it (combine).
        shapes.einsum_spec = "td,dh->th";
        shapes.lhs_global = Shape(
            spec.dtype, {n * n * spec.shard_extent, spec.contract});
        shapes.rhs_global = Shape(spec.dtype, {spec.contract, spec.free1});
        shapes.lhs_sharding = TensorSharding::OnDim(2, 0, spec.axis);
        shapes.rhs_sharding = TensorSharding::Replicated(2);
        return shapes;
    }
    if (spec.site_case == SiteCase::kReduceScatter) {
        // "bf,fh->bh" with 'f' sharded; scatter along 'b' (side 0) or
        // 'h' (side 1).
        shapes.einsum_spec = "bf,fh->bh";
        int64_t b_size =
            spec.side == 0 ? n * spec.shard_extent : spec.free0;
        int64_t h_size =
            spec.side == 1 ? n * spec.shard_extent : spec.free1;
        shapes.lhs_global = Shape(spec.dtype, {b_size, n * spec.contract});
        shapes.rhs_global = Shape(spec.dtype, {n * spec.contract, h_size});
        shapes.lhs_sharding = TensorSharding::OnDim(2, 1, spec.axis);
        shapes.rhs_sharding = TensorSharding::OnDim(2, 0, spec.axis);
        shapes.rs_dim = spec.side == 0 ? 0 : 1;
        return shapes;
    }

    // The three AllGather cases.
    shapes.gathered_side = spec.side;
    if (spec.site_case == SiteCase::kAllGatherBatch) {
        shapes.einsum_spec = "bmf,bfh->bmh";
        shapes.lhs_global = Shape(
            spec.dtype, {n * spec.shard_extent, spec.free0, spec.contract});
        shapes.rhs_global = Shape(
            spec.dtype, {n * spec.shard_extent, spec.contract, spec.free1});
        shapes.gathered_dim = 0;  // 'b' in both operands
    } else if (spec.site_case == SiteCase::kAllGatherContracting) {
        shapes.einsum_spec = "bf,fh->bh";
        shapes.lhs_global =
            Shape(spec.dtype, {spec.free0, n * spec.shard_extent});
        shapes.rhs_global =
            Shape(spec.dtype, {n * spec.shard_extent, spec.free1});
        shapes.gathered_dim = shapes.gathered_side == 0 ? 1 : 0;  // 'f'
    } else {
        shapes.einsum_spec = "bf,fh->bh";
        if (shapes.gathered_side == 0) {
            shapes.lhs_global = Shape(
                spec.dtype, {n * spec.shard_extent, spec.contract});
            shapes.rhs_global =
                Shape(spec.dtype, {spec.contract, spec.free1});
            shapes.gathered_dim = 0;  // 'b'
        } else {
            shapes.lhs_global =
                Shape(spec.dtype, {spec.free0, spec.contract});
            shapes.rhs_global = Shape(
                spec.dtype, {spec.contract, n * spec.shard_extent});
            shapes.gathered_dim = 1;  // 'h'
        }
    }
    const Shape& gathered_global = shapes.gathered_side == 0
                                       ? shapes.lhs_global
                                       : shapes.rhs_global;
    TensorSharding gathered_sharding = TensorSharding::OnDim(
        gathered_global.rank(), shapes.gathered_dim, spec.axis);
    TensorSharding replicated =
        TensorSharding::Replicated(shapes.gathered_side == 0
                                       ? shapes.rhs_global.rank()
                                       : shapes.lhs_global.rank());
    shapes.lhs_sharding =
        shapes.gathered_side == 0 ? gathered_sharding : replicated;
    shapes.rhs_sharding =
        shapes.gathered_side == 0 ? replicated : gathered_sharding;
    return shapes;
}

}  // namespace

StatusOr<std::unique_ptr<HloModule>>
BuildSiteModule(const SiteSpec& spec)
{
    auto shapes = ShapesFor(spec);
    if (!shapes.ok()) return shapes.status();
    Mesh mesh = spec.mesh();
    auto module = std::make_unique<HloModule>("difftest");
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);

    if (spec.site_case == SiteCase::kAllToAll) {
        auto* tokens = b.Parameter(
            0, shapes->lhs_sharding.ShardShape(shapes->lhs_global, mesh),
            "tokens_shard");
        auto* weights = b.Parameter(1, shapes->rhs_global, "weights");
        if (spec.side == 0) {
            auto* a2a = b.AllToAll(tokens, 0, mesh.Groups(spec.axis));
            comp->set_root(b.Einsum(a2a, weights, shapes->einsum_spec));
        } else {
            auto* einsum = b.Einsum(tokens, weights, shapes->einsum_spec);
            comp->set_root(
                b.AllToAll(einsum, 0, mesh.Groups(spec.axis)));
        }
        return module;
    }

    if (spec.site_case == SiteCase::kReduceScatter) {
        auto* lhs = b.Parameter(
            0, shapes->lhs_sharding.ShardShape(shapes->lhs_global, mesh));
        auto* rhs = b.Parameter(
            1, shapes->rhs_sharding.ShardShape(shapes->rhs_global, mesh));
        auto* einsum = b.Einsum(lhs, rhs, shapes->einsum_spec);
        comp->set_root(b.ReduceScatter(einsum, shapes->rs_dim,
                                       mesh.Groups(spec.axis)));
        return module;
    }

    const Shape& gathered_global = shapes->gathered_side == 0
                                       ? shapes->lhs_global
                                       : shapes->rhs_global;
    const Shape& other_global = shapes->gathered_side == 0
                                    ? shapes->rhs_global
                                    : shapes->lhs_global;
    const TensorSharding& gathered_sharding = shapes->gathered_side == 0
                                                  ? shapes->lhs_sharding
                                                  : shapes->rhs_sharding;
    auto* shard_param = b.Parameter(
        0, gathered_sharding.ShardShape(gathered_global, mesh),
        "gathered_shard");
    auto* other_param = b.Parameter(1, other_global, "other");
    auto* ag = b.AllGather(shard_param, shapes->gathered_dim,
                           mesh.Groups(spec.axis));
    comp->set_root(shapes->gathered_side == 0
                       ? b.Einsum(ag, other_param, shapes->einsum_spec)
                       : b.Einsum(other_param, ag, shapes->einsum_spec));
    return module;
}

StatusOr<SiteScenario>
BuildSiteScenario(const SiteSpec& spec)
{
    auto module = BuildSiteModule(spec);
    if (!module.ok()) return module.status();
    auto shapes = ShapesFor(spec);
    if (!shapes.ok()) return shapes.status();
    Mesh mesh = spec.mesh();
    SiteScenario s;
    s.module = std::move(module).value();

    Tensor lhs_data = Tensor::Random(shapes->lhs_global, spec.data_seed + 1);
    Tensor rhs_data = Tensor::Random(shapes->rhs_global, spec.data_seed + 2);
    auto parsed = EinsumSpec::Parse(shapes->einsum_spec);

    if (spec.site_case == SiteCase::kAllToAll) {
        // Analytic AllToAll ground truth, computed per ring group: the
        // member at position i's output block j is member j's input
        // block i (block = shard_extent rows; rows are contiguous in
        // the row-major buffers, so blocks copy as flat ranges).
        const int64_t n = spec.ring_size();
        const int64_t block = spec.shard_extent;
        std::vector<Tensor> token_shards =
            ShardTensor(lhs_data, shapes->lhs_sharding, mesh);
        s.expected.resize(static_cast<size_t>(mesh.num_devices()));
        std::vector<Tensor> einsum_outs;
        if (spec.side == 1) {
            // Combine: the einsum runs on the un-exchanged shard.
            for (int64_t d = 0; d < mesh.num_devices(); ++d) {
                auto out = parsed->Evaluate(
                    token_shards[static_cast<size_t>(d)], rhs_data);
                if (!out.ok()) return out.status();
                einsum_outs.push_back(std::move(out).value());
            }
        }
        for (const auto& group : mesh.Groups(spec.axis)) {
            for (size_t i = 0; i < group.size(); ++i) {
                const std::vector<Tensor>& sources =
                    spec.side == 0 ? token_shards : einsum_outs;
                const int64_t row =
                    sources[0].shape().dim(1);  // contract or free1
                Tensor exchanged(Shape(
                    spec.dtype, {n * block, sources[0].shape().dim(1)}));
                for (size_t j = 0; j < group.size(); ++j) {
                    const auto& src =
                        sources[static_cast<size_t>(group[j])].values();
                    std::copy(
                        src.begin() + static_cast<int64_t>(i) * block * row,
                        src.begin() +
                            static_cast<int64_t>(i + 1) * block * row,
                        exchanged.values().begin() +
                            static_cast<int64_t>(j) * block * row);
                }
                if (spec.side == 0) {
                    auto out = parsed->Evaluate(exchanged, rhs_data);
                    if (!out.ok()) return out.status();
                    s.expected[static_cast<size_t>(group[i])] =
                        std::move(out).value();
                } else {
                    s.expected[static_cast<size_t>(group[i])] =
                        std::move(exchanged);
                }
            }
        }
        s.params.push_back(std::move(token_shards));
        s.params.push_back({rhs_data});
        return s;
    }

    auto global = parsed->Evaluate(lhs_data, rhs_data);
    if (!global.ok()) return global.status();

    if (spec.site_case == SiteCase::kReduceScatter) {
        s.params.push_back(ShardTensor(lhs_data, shapes->lhs_sharding, mesh));
        s.params.push_back(ShardTensor(rhs_data, shapes->rhs_sharding, mesh));
        s.expected = ShardTensor(
            global.value(),
            TensorSharding::OnDim(2, shapes->rs_dim, spec.axis), mesh);
        return s;
    }

    // AllGather cases: parameter 0 is the gathered operand's shard,
    // parameter 1 the replicated other operand.
    const Tensor& gathered_data =
        shapes->gathered_side == 0 ? lhs_data : rhs_data;
    const Tensor& other_data =
        shapes->gathered_side == 0 ? rhs_data : lhs_data;
    const TensorSharding& gathered_sharding = shapes->gathered_side == 0
                                                  ? shapes->lhs_sharding
                                                  : shapes->rhs_sharding;
    s.params.push_back(ShardTensor(gathered_data, gathered_sharding, mesh));
    s.params.push_back({other_data});
    s.expected.assign(static_cast<size_t>(mesh.num_devices()),
                      global.value());
    return s;
}

namespace {

/** Decomposes + async-splits a site module under `variant`; the site
 * must be rewritten and no blocking AG/RS/A2A may survive. */
Status
TransformSiteModule(HloModule* module, const DecomposeVariant& variant,
                    bool inject_shard_id_bug)
{
    DecomposeOptions options;
    variant.ApplyTo(&options);
    options.test_shard_id_bug = inject_shard_id_bug;
    options.use_cost_model = false;  // the oracle checks every site
    CostModel cost((HardwareSpec()));
    CollectiveEinsumDecomposer decomposer(*module->mesh(), &cost, options);
    HloComputation* comp = module->entry();
    auto stats = decomposer.Run(comp);
    if (!stats.ok()) return stats.status();
    if (stats->total_decomposed() != 1) {
        return Internal(StrCat("expected 1 decomposed site, got ",
                               stats->total_decomposed()));
    }
    if (!stats->BucketsConsistent()) {
        return Internal("decompose stats buckets inconsistent");
    }
    for (const HloInstruction* instr : comp->instructions()) {
        const HloOpcode op = instr->opcode();
        if (op == HloOpcode::kAllGather || op == HloOpcode::kReduceScatter ||
            op == HloOpcode::kAllToAll) {
            return Internal(StrCat("blocking ", HloOpcodeName(op),
                                   " survived decomposition"));
        }
    }
    OVERLAP_RETURN_IF_ERROR(VerifyModule(*module));
    auto converted = CreateAsyncPairs(comp, HloOpcode::kCollectivePermute);
    if (!converted.ok()) return converted.status();
    return VerifyModule(*module);
}

}  // namespace

StatusOr<std::vector<OutputComparison>>
RunCaseVariants(const SiteSpec& spec,
                const std::vector<DecomposeVariant>& variants,
                bool inject_shard_id_bug)
{
    auto reference = BuildSiteScenario(spec);
    if (!reference.ok()) return reference.status();
    std::vector<std::unique_ptr<HloModule>> lowered;
    std::vector<const HloComputation*> computations = {
        reference->module->entry()};
    for (const DecomposeVariant& variant : variants) {
        auto module = BuildSiteModule(spec);
        if (!module.ok()) return module.status();
        OVERLAP_RETURN_IF_ERROR(TransformSiteModule(
            module->get(), variant, inject_shard_id_bug));
        computations.push_back((*module)->entry());
        lowered.push_back(std::move(module).value());
    }

    SpmdEvaluator evaluator(*reference->module->mesh());
    auto outputs = evaluator.EvaluateBatch(computations, reference->params);
    if (!outputs.ok()) return outputs.status();
    double tolerance =
        EquivalenceTolerance(spec.dtype, spec.reduction_extent());
    // Sanity: the blocking program must match the analytic ground truth
    // (otherwise the harness, not the pass, is broken).
    OutputComparison baseline = CompareOutputs(
        reference->expected, (*outputs)[0], tolerance);
    if (!baseline.equal) {
        return Internal(StrCat("blocking reference disagrees with ground "
                               "truth: ",
                               baseline.ToString()));
    }
    std::vector<OutputComparison> comparisons;
    comparisons.reserve(variants.size());
    for (size_t v = 1; v < outputs->size(); ++v) {
        comparisons.push_back(
            CompareOutputs((*outputs)[0], (*outputs)[v], tolerance));
    }
    return comparisons;
}

StatusOr<OutputComparison>
RunSingleCase(const SiteSpec& spec, const DecomposeVariant& variant,
              bool inject_shard_id_bug)
{
    auto comparisons =
        RunCaseVariants(spec, {variant}, inject_shard_id_bug);
    if (!comparisons.ok()) return comparisons.status();
    return comparisons->front();
}

std::string
DiffTestSummary::ToString() const
{
    std::string out = StrCat(
        "difftest: ", cases_run, " cases, ", variants_run, " variants, ",
        mismatches, " mismatches; coverage ag_free=", cases_by_site[0],
        " ag_contract=", cases_by_site[1], " ag_batch=", cases_by_site[2],
        " rs=", cases_by_site[3], " a2a=", cases_by_site[4],
        " odd_extent=", odd_extent_cases,
        " even_extent=", even_extent_cases);
    for (const CaseFailure& f : failures) {
        out += StrCat("\n  FAIL [", f.variant, "] ", f.spec.ToString(),
                      " -> ", f.comparison.ToString());
    }
    return out;
}

namespace {

/**
 * Everything one sweep case produces, detached from the shared summary
 * so cases can run on pool workers: one comparison per variant (in
 * variant order), or the case's harness error.
 * Default-constructible, as ThreadPool::ParallelFor requires.
 */
struct CaseOutcome {
    std::vector<OutputComparison> comparisons;
    Status error;
};

/** The sweep's spec source: the stratified cycle, or one pinned case. */
SiteSpec
SpecFor(const DiffTestConfig& config, int64_t index)
{
    return config.only_case
               ? GenerateSiteSpecForCase(config.seed, index,
                                         *config.only_case)
               : GenerateSiteSpec(config.seed, index);
}

CaseOutcome
RunCase(const DiffTestConfig& config, const SiteSpec& spec)
{
    auto comparisons = RunCaseVariants(spec, AllDecomposeVariants(),
                                       config.inject_shard_id_bug);
    if (!comparisons.ok()) return {{}, comparisons.status()};
    return {std::move(comparisons).value(), Status::Ok()};
}

}  // namespace

StatusOr<DiffTestSummary>
RunDiffTest(const DiffTestConfig& config)
{
    // Phase 1: per-case outcomes, possibly fanned across a pool. With
    // threads > 1 every case runs even if an early case trips the
    // failure cap; the ordered merge below discards the surplus so the
    // summary is byte-identical to the serial sweep.
    std::vector<CaseOutcome> outcomes;
    const int64_t threads = std::min<int64_t>(
        config.threads, std::max<int64_t>(config.num_cases, 1));
    if (threads > 1) {
        ThreadPool pool(static_cast<int>(threads));
        outcomes = pool.ParallelFor(config.num_cases, [&](int64_t i) {
            return RunCase(config, SpecFor(config, i));
        });
    } else {
        outcomes.reserve(static_cast<size_t>(config.num_cases));
        int64_t failed = 0;
        for (int64_t i = 0; i < config.num_cases; ++i) {
            outcomes.push_back(RunCase(config, SpecFor(config, i)));
            // Serial mode keeps the historical early exits: stop
            // building outcomes once an error or the failure cap makes
            // the merge below ignore the remaining cases anyway.
            const CaseOutcome& out = outcomes.back();
            for (const OutputComparison& c : out.comparisons) {
                if (!c.equal) ++failed;
            }
            if (!out.error.ok() ||
                (config.max_failures > 0 && failed >= config.max_failures)) {
                break;
            }
        }
    }

    // Phase 2: ordered merge, replicating the serial loop exactly —
    // per-case counters first, then the case's comparisons in variant
    // order, then its harness error, then the failure-cap cut-off.
    DiffTestSummary summary;
    for (size_t i = 0; i < outcomes.size(); ++i) {
        SiteSpec spec = SpecFor(config, static_cast<int64_t>(i));
        ++summary.cases_run;
        ++summary.cases_by_site[static_cast<size_t>(spec.site_case)];
        if (spec.shard_extent % 2 == 1) {
            ++summary.odd_extent_cases;
        } else {
            ++summary.even_extent_cases;
        }
        CaseOutcome& out = outcomes[i];
        const std::vector<DecomposeVariant>& variants =
            AllDecomposeVariants();
        for (size_t j = 0; j < out.comparisons.size(); ++j) {
            ++summary.variants_run;
            if (!out.comparisons[j].equal) {
                ++summary.mismatches;
                if (config.max_failures == 0 ||
                    static_cast<int64_t>(summary.failures.size()) <
                        config.max_failures) {
                    summary.failures.push_back(
                        {spec, variants[j].name,
                         std::move(out.comparisons[j])});
                }
            }
        }
        if (!out.error.ok()) return out.error;
        if (config.max_failures > 0 &&
            static_cast<int64_t>(summary.failures.size()) >=
                config.max_failures) {
            break;
        }
    }
    return summary;
}

namespace {

/** One SDC case's verdict, detached for pool workers. */
struct SdcCaseOutcome {
    CorruptionDetector detector = CorruptionDetector::kNone;
    bool detected = false;
    bool masked = false;
    bool false_positive = false;
    bool localization_error = false;
    bool escaped = false;
    /// Populated for any failing verdict.
    std::string note;
    Status error;
};

SdcCaseOutcome
RunSdcCase(const SdcSweepConfig& config, int64_t index)
{
    SdcCaseOutcome out;
    // The corruption model is f32 bit-level; pin the dtype so every
    // case exercises it (the equivalence sweep covers bf16 separately).
    SiteSpec spec = GenerateSiteSpec(config.seed, index);
    spec.dtype = DType::kF32;

    // Cycle the blocking form and every decomposed variant, so both the
    // original collective + einsum pair and the looped rewrite (with its
    // CollectivePermute ring and partial einsums) face injections.
    auto scenario = BuildSiteScenario(spec);
    if (!scenario.ok()) {
        out.error = scenario.status();
        return out;
    }
    const std::vector<DecomposeVariant>& variants = AllDecomposeVariants();
    const int64_t shape =
        index % (1 + static_cast<int64_t>(variants.size()));
    std::string form = "blocking";
    if (shape > 0) {
        const DecomposeVariant& variant =
            variants[static_cast<size_t>(shape - 1)];
        form = variant.name;
        out.error =
            TransformSiteModule(scenario->module.get(), variant, false);
        if (!out.error.ok()) return out;
    }
    const Mesh& mesh = *scenario->module->mesh();
    const HloComputation& comp = *scenario->module->entry();

    // Per-kind ordinal counts, walking the (possibly rewritten) program
    // in the same order the evaluator names targets.
    int64_t num_einsums = 0;
    int64_t num_exchanges = 0;
    for (const HloInstruction* instr : comp.instructions()) {
        if (instr->opcode() == HloOpcode::kEinsum) ++num_einsums;
        if (IsExchangeOp(instr->opcode())) ++num_exchanges;
    }
    if (num_einsums == 0) {
        out.error = Internal("SDC case has no einsum to target");
        return out;
    }

    SpmdEvaluator baseline_eval(mesh);
    auto baseline = baseline_eval.Evaluate(comp, scenario->params);
    if (!baseline.ok()) {
        out.error = baseline.status();
        return out;
    }

    SdcDetectorConfig detectors;
    detectors.enabled = true;
    detectors.einsum_check_cadence = 1;

    auto fail = [&](const char* what, const std::string& detail) {
        out.note = StrCat(what, " [", form, "] ", spec.ToString(),
                          detail.empty() ? "" : StrCat(" -- ", detail));
    };

    // Clean run with every detector armed: must finish report-free and
    // bit-identical to the detectors-off run (zero false positives).
    {
        SdcEvalConfig clean;
        clean.detectors = detectors;
        SdcEvalSink sink;
        EvalOptions eval;
        eval.sdc = &clean;
        eval.sdc_sink = &sink;
        SpmdEvaluator evaluator(mesh, eval);
        auto outputs = evaluator.Evaluate(comp, scenario->params);
        if (!outputs.ok() || sink.detected()) {
            out.false_positive = true;
            fail("false positive on clean run",
                 sink.Primary() ? sink.Primary()->ToString()
                                : outputs.status().message());
            return out;
        }
        OutputComparison same =
            CompareOutputs(*baseline, *outputs, /*tolerance=*/0.0);
        if (!same.equal) {
            out.false_positive = true;
            fail("detectors-on clean run diverged", same.ToString());
            return out;
        }
    }

    // One seeded injection. Every 5th case aims deliberately out of
    // range (chip or ordinal) to prove the masked path: nothing is
    // touched and the sweep verifies bit-equality rather than detection.
    std::mt19937_64 rng(DeriveTaskSeed(config.seed,
                                       static_cast<uint64_t>(index)));
    const bool out_of_range = index % 5 == 4;
    SilentCorruption c;
    c.step = 0;
    c.target = (num_exchanges > 0 && rng() % 2 == 0)
                   ? CorruptionTarget::kTransferPayload
                   : CorruptionTarget::kEinsumOutput;
    const int64_t num_targets = c.target == CorruptionTarget::kEinsumOutput
                                    ? num_einsums
                                    : num_exchanges;
    c.chip = static_cast<int64_t>(rng() % static_cast<uint64_t>(
                                              mesh.num_devices()));
    c.instruction =
        static_cast<int64_t>(rng() % static_cast<uint64_t>(num_targets));
    if (out_of_range) {
        if (rng() % 2 == 0) {
            c.chip = mesh.num_devices() + static_cast<int64_t>(rng() % 3);
        } else {
            c.instruction = num_targets + static_cast<int64_t>(rng() % 3);
        }
    }
    c.element = static_cast<int64_t>(rng() % 1024);
    c.kind = rng() % 4 == 0 ? CorruptionKind::kValuePerturbation
                            : CorruptionKind::kBitFlip;

    SdcEvalConfig injected;
    injected.corruptions.push_back(c);
    injected.detectors = detectors;
    SdcEvalSink sink;
    EvalOptions eval;
    eval.sdc = &injected;
    eval.sdc_sink = &sink;
    SpmdEvaluator evaluator(mesh, eval);
    auto outputs = evaluator.Evaluate(comp, scenario->params);

    if (!outputs.ok() && sink.detected()) {
        const CorruptionReport report = *sink.Primary();
        if (out_of_range) {
            out.false_positive = true;
            fail("detector fired on out-of-range injection",
                 report.ToString());
            return out;
        }
        out.detected = true;
        out.detector = report.detector;
        if (report.chip != c.chip) {
            out.localization_error = true;
            fail("localized the wrong chip",
                 StrCat("injected ", c.ToString(), ", reported ",
                        report.ToString()));
        }
        return out;
    }
    if (!outputs.ok()) {
        out.error = outputs.status();
        return out;
    }
    OutputComparison same =
        CompareOutputs(*baseline, *outputs, /*tolerance=*/0.0);
    if (same.equal) {
        out.masked = true;
        if (!out_of_range) {
            // In-range injections of this sweep always strike a value a
            // cadence-1 detector guards; surviving bit-identical means
            // the injection never landed — a harness bug worth flagging.
            out.escaped = true;
            fail("in-range injection touched nothing", c.ToString());
        }
        return out;
    }
    out.escaped = true;
    fail("corruption escaped into the outputs",
         StrCat(c.ToString(), " -- ", same.ToString()));
    return out;
}

}  // namespace

std::string
SdcSweepSummary::ToString() const
{
    std::string out = StrCat(
        "sdc sweep: ", cases_run, " cases, detected=", detected,
        " (transfer=", transfer_detections, " abft=", abft_detections,
        "), masked=", masked, ", false_positives=", false_positives,
        ", localization_errors=", localization_errors,
        ", escaped=", escaped, Clean() ? " -- CLEAN" : " -- FAILING");
    for (const std::string& f : failures) {
        out += StrCat("\n  FAIL ", f);
    }
    return out;
}

StatusOr<SdcSweepSummary>
RunSdcSweep(const SdcSweepConfig& config)
{
    std::vector<SdcCaseOutcome> outcomes;
    const int64_t threads = std::min<int64_t>(
        config.threads, std::max<int64_t>(config.num_cases, 1));
    if (threads > 1) {
        ThreadPool pool(static_cast<int>(threads));
        outcomes = pool.ParallelFor(config.num_cases, [&](int64_t i) {
            return RunSdcCase(config, i);
        });
    } else {
        outcomes.reserve(static_cast<size_t>(config.num_cases));
        for (int64_t i = 0; i < config.num_cases; ++i) {
            outcomes.push_back(RunSdcCase(config, i));
            if (!outcomes.back().error.ok()) break;
        }
    }

    SdcSweepSummary summary;
    for (const SdcCaseOutcome& out : outcomes) {
        if (!out.error.ok()) return out.error;
        ++summary.cases_run;
        if (out.detected) {
            ++summary.detected;
            if (out.detector == CorruptionDetector::kTransferChecksum) {
                ++summary.transfer_detections;
            } else if (out.detector == CorruptionDetector::kEinsumAbft) {
                ++summary.abft_detections;
            }
        }
        if (out.masked) ++summary.masked;
        if (out.false_positive) ++summary.false_positives;
        if (out.localization_error) ++summary.localization_errors;
        if (out.escaped) ++summary.escaped;
        if (!out.note.empty()) summary.failures.push_back(out.note);
    }
    return summary;
}

std::vector<SiteSpec>
OverlapReportSiteSpace()
{
    // One gate-profitable site per §5.1 decomposition case, on default
    // TPU-v4 numbers. Each case needs its own proportions: the gate
    // wins when the partial einsums are big enough to hide the ring
    // steps while the loop's combine/slice traffic stays below the
    // wire time the decomposition saves, and those terms scale with
    // different extents per case.
    std::vector<SiteSpec> specs;
    {
        // einsum (4e x c) . (c x f1): activation gather. The saved
        // wire time grows with c while the combine traffic only
        // tracks the output, so a fat contracting dim wins.
        SiteSpec spec;
        spec.site_case = SiteCase::kAllGatherFree;
        spec.mesh_dims = {4};
        spec.data_seed = 7;
        spec.shard_extent = 64;
        spec.contract = 8192;
        spec.free1 = 4096;
        spec.free0 = 1;
        specs.push_back(spec);
    }
    {
        // einsum (f0 x 4e) . (4e x f1): weight gather over the
        // contracting label; the loop re-accumulates the full (f0 x
        // f1) output every iteration.
        SiteSpec spec;
        spec.site_case = SiteCase::kAllGatherContracting;
        spec.mesh_dims = {4};
        spec.data_seed = 7;
        spec.shard_extent = 2048;
        spec.free0 = 4096;
        spec.free1 = 2048;
        spec.contract = 1;
        specs.push_back(spec);
    }
    {
        // einsum (4e x f0 x c) . (4e x c x f1), batch label gathered.
        SiteSpec spec;
        spec.site_case = SiteCase::kAllGatherBatch;
        spec.mesh_dims = {4};
        spec.data_seed = 7;
        spec.shard_extent = 8;
        spec.free0 = 8192;
        spec.contract = 8192;
        spec.free1 = 2048;
        specs.push_back(spec);
    }
    {
        // einsum (4e x 4c) . (4c x f1), output scattered over rows.
        SiteSpec spec;
        spec.site_case = SiteCase::kReduceScatter;
        spec.mesh_dims = {4};
        spec.data_seed = 7;
        spec.shard_extent = 256;
        spec.contract = 8192;
        spec.free1 = 8192;
        spec.free0 = 1;
        specs.push_back(spec);
    }
    {
        // MoE dispatch (§18): AllToAll (16e x c) feeding einsum
        // (16e x c) . (c x f1). The decomposed form serializes 3B/4
        // per ring direction where the torus-routed blocking A2A moves
        // B/2, so it only wins where the partial einsums hide the
        // chunk permutes outright (f1 above ~7000 on v4 numbers) while
        // the per-chunk DUS traffic stays below the saved exchange
        // (f1 below 4c).
        SiteSpec spec;
        spec.site_case = SiteCase::kAllToAll;
        spec.mesh_dims = {4};
        spec.data_seed = 7;
        spec.side = 0;
        spec.shard_extent = 512;  // per-device tokens = 4 * 512
        spec.contract = 8192;
        spec.free1 = 8192;
        spec.free0 = 1;
        specs.push_back(spec);
    }
    {
        // MoE combine (§18): einsum (16e x c) . (c x f1) feeding the
        // AllToAll on its output rows; same proportions as dispatch.
        SiteSpec spec;
        spec.site_case = SiteCase::kAllToAll;
        spec.mesh_dims = {4};
        spec.data_seed = 7;
        spec.side = 1;
        spec.shard_extent = 512;
        spec.contract = 8192;
        spec.free1 = 8192;
        spec.free0 = 1;
        specs.push_back(spec);
    }
    return specs;
}

std::vector<SiteSpec>
ReplaySiteSpace(uint64_t seed, int64_t generated)
{
    std::vector<SiteSpec> specs = OverlapReportSiteSpace();
    for (int64_t i = 0; i < generated; ++i) {
        specs.push_back(GenerateSiteSpec(seed, i));
    }
    return specs;
}

StatusOr<SiteSimulation>
SimulateSite(const SiteSpec& spec, const CompilerOptions& options)
{
    SiteSimulation result;
    auto module = BuildSiteModule(spec);
    if (!module.ok()) return module.status();
    auto compile = OverlapCompiler(options).Compile(module->get());
    if (!compile.ok()) return compile.status();
    result.compile = std::move(compile).value();
    PodSimulator simulator(spec.mesh(), options.hardware);
    auto sim = simulator.Run(**module, /*collect_trace=*/true);
    if (!sim.ok()) return sim.status();
    result.sim = std::move(sim).value();

    auto blocking = BuildSiteModule(spec);
    if (!blocking.ok()) return blocking.status();
    CompilerOptions baseline_options = CompilerOptions::Baseline();
    baseline_options.hardware = options.hardware;
    auto baseline_compile =
        OverlapCompiler(baseline_options).Compile(blocking->get());
    if (!baseline_compile.ok()) return baseline_compile.status();
    auto baseline_sim = simulator.Run(**blocking);
    if (!baseline_sim.ok()) return baseline_sim.status();
    result.baseline_step_seconds = baseline_sim->step_seconds;
    return result;
}

StatusOr<std::vector<ReplaySample>>
CollectReplaySamples(const std::vector<SiteSpec>& specs,
                     const HardwareSpec& hardware)
{
    std::vector<ReplaySample> samples;
    for (const SiteSpec& spec : specs) {
        // One sample per emitted (structure, copies) pair of the site.
        std::set<std::pair<int, bool>> seen;
        for (const DecomposeVariant& variant : AllDecomposeVariants()) {
            CompilerOptions options;
            options.hardware = hardware;
            options.decompose.use_cost_model = false;
            variant.ApplyTo(&options.decompose);
            auto site = SimulateSite(spec, options);
            if (!site.ok()) return site.status();
            const SiteDecision* decision = nullptr;
            for (const SiteDecision& d : site->compile.decompose.decisions) {
                if (d.decomposed) decision = &d;
            }
            // A site the matcher skipped under this lowering (no
            // decomposed decision) contributes nothing.
            if (decision == nullptr) continue;
            const LoopShape& shape = decision->cost.shape;
            if (!seen.insert({static_cast<int>(shape.structure),
                              shape.has_copies})
                     .second) {
                continue;
            }
            ReplaySample sample;
            sample.spec = spec;
            sample.variant = variant.name;
            sample.cost = decision->cost;
            sample.simulated_span_seconds = site->sim.step_seconds;
            sample.blocking_span_seconds = site->baseline_step_seconds;
            samples.push_back(std::move(sample));
        }
    }
    return samples;
}

}  // namespace difftest
}  // namespace overlap
