/**
 * @file
 * Randomized end-to-end property tests: random einsum specs, partition
 * counts, gathered sides and option combinations are pushed through the
 * full pipeline (decompose -> async -> fuse -> schedule) and the result
 * is interpreted on the multi-device evaluator against the untouched
 * program. Catches interactions the targeted suites do not enumerate.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "core/overlap_compiler.h"
#include "hlo/builder.h"
#include "hlo/parser.h"
#include "hlo/verifier.h"
#include "interp/evaluator.h"
#include "support/strings.h"
#include "test_util.h"

namespace overlap {
namespace {

/** Deterministic pseudo-random stream. */
class Rng {
  public:
    explicit Rng(uint64_t seed) : state_(seed * 2654435761u + 1) {}

    uint64_t Next()
    {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 7;
        state_ ^= state_ << 17;
        return state_;
    }
    int64_t Pick(std::initializer_list<int64_t> values)
    {
        auto it = values.begin();
        std::advance(it, static_cast<int64_t>(Next() % values.size()));
        return *it;
    }

  private:
    uint64_t state_;
};

struct FuzzCase {
    std::string spec;
    std::vector<int64_t> lhs_dims;  // label sizes, filled below
    std::vector<int64_t> rhs_dims;
};

class PipelineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PipelineFuzz, RandomScenarioStaysEquivalent)
{
    Rng rng(static_cast<uint64_t>(GetParam()));
    const char* specs[] = {"bf,fh->bh", "bmf,bfh->bmh", "ab,bc->ac",
                           "xsd,dh->xsh"};
    std::string spec_str = specs[rng.Next() % 4];
    auto spec = EinsumSpec::Parse(spec_str);
    ASSERT_TRUE(spec.ok());

    int64_t n = rng.Pick({2, 3, 4, 6});
    Mesh mesh(n);
    int64_t shard = rng.Pick({1, 2, 3});
    bool use_rs = rng.Next() % 3 == 0;

    // Choose the partitioned label: for AllGather any label of the
    // gathered side, for ReduceScatter a free label.
    int64_t side = static_cast<int64_t>(rng.Next() % 2);
    const std::string& side_labels =
        side == 0 ? spec->lhs_labels() : spec->rhs_labels();
    char label = 0;
    for (size_t attempt = 0; attempt < side_labels.size() * 4; ++attempt) {
        char candidate = side_labels[rng.Next() % side_labels.size()];
        EinsumDimKind kind = spec->KindOf(candidate);
        if (use_rs && kind != EinsumDimKind::kLhsFree &&
            kind != EinsumDimKind::kRhsFree) {
            continue;
        }
        label = candidate;
        break;
    }
    if (label == 0) GTEST_SKIP() << "no usable label for this draw";
    if (use_rs) {
        side = spec->KindOf(label) == EinsumDimKind::kLhsFree ? 0 : 1;
    }

    // Global sizes per label.
    std::map<char, int64_t> sizes;
    for (char c : spec->all_labels()) {
        sizes[c] = rng.Pick({2, 3, 4});
    }
    sizes[label] = n * shard;

    auto dims_for = [&](const std::string& labels) {
        std::vector<int64_t> dims;
        for (char c : labels) dims.push_back(sizes.at(c));
        return dims;
    };
    Shape lhs_global(dims_for(spec->lhs_labels()));
    Shape rhs_global(dims_for(spec->rhs_labels()));

    HloModule module("fuzz");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    std::vector<std::vector<Tensor>> params;
    Tensor lhs_data = Tensor::Random(lhs_global, rng.Next());
    Tensor rhs_data = Tensor::Random(rhs_global, rng.Next());

    if (!use_rs) {
        // Shard the gathered operand along `label`, AllGather it back.
        const Shape& gathered = side == 0 ? lhs_global : rhs_global;
        int64_t dim = side == 0 ? spec->LhsDimOf(label)
                                : spec->RhsDimOf(label);
        TensorSharding sharding =
            TensorSharding::OnDim(gathered.rank(), dim, 0);
        auto* p0 = b.Parameter(0, sharding.ShardShape(gathered, mesh));
        auto* p1 =
            b.Parameter(1, side == 0 ? rhs_global : lhs_global);
        auto* ag = b.AllGather(p0, dim, mesh.Groups(0));
        comp->set_root(side == 0 ? b.Einsum(ag, p1, spec_str)
                                 : b.Einsum(p1, ag, spec_str));
        params.push_back(ShardTensor(side == 0 ? lhs_data : rhs_data,
                                     sharding, mesh));
        params.push_back({side == 0 ? rhs_data : lhs_data});
    } else {
        // Partial einsum + ReduceScatter along the free label's out dim.
        auto* p0 = b.Parameter(0, lhs_global);
        auto* p1 = b.Parameter(1, rhs_global);
        auto* e = b.Einsum(p0, p1, spec_str);
        comp->set_root(b.ReduceScatter(e, spec->OutDimOf(label),
                                       mesh.Groups(0)));
        params.push_back({lhs_data});
        params.push_back({rhs_data});
    }
    ASSERT_TRUE(VerifyModule(module).ok());

    SpmdEvaluator eval(mesh);
    auto before = eval.Evaluate(*comp, params);
    ASSERT_TRUE(before.ok()) << before.status().ToString();

    CompilerOptions options;
    options.decompose.use_cost_model = false;
    options.decompose.unroll = rng.Next() % 2 == 0;
    options.decompose.bidirectional = rng.Next() % 2 == 0;
    options.fusion = rng.Next() % 2 == 0 ? FusionHeuristic::kDefault
                                         : FusionHeuristic::kOverlapAware;
    options.scheduler = rng.Next() % 2 == 0 ? SchedulerKind::kBottomUp
                                            : SchedulerKind::kTopDown;
    OverlapCompiler compiler(options);
    auto report = compiler.Compile(&module);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(VerifyModule(module).ok());

    auto after = eval.Evaluate(*comp, params);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    for (int64_t d = 0; d < n; ++d) {
        EXPECT_TRUE((*after)[static_cast<size_t>(d)].AllClose(
            (*before)[static_cast<size_t>(d)], 1e-3f))
            << spec_str << " n=" << n << " device " << d
            << (use_rs ? " (reduce-scatter)" : " (all-gather)");
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz, ::testing::Range(1, 61));

// ---------------------------------------------------------------------------
// Verifier-targeted fuzzing: malformed modules must come back as error
// Status from VerifyModule, never crash (and never throw). These are the
// graphs a buggy pass could emit; the guarded pipeline relies on the
// verifier catching every one of them.
// ---------------------------------------------------------------------------

std::vector<std::pair<int64_t, int64_t>>
RingPairs(int64_t n)
{
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (int64_t d = 0; d < n; ++d) pairs.push_back({d, (d + 1) % n});
    return pairs;
}

/** A tiny valid module: parameter -> permute-start -> done (root). */
std::unique_ptr<HloModule>
BuildPermuteModule(HloInstruction** start_out = nullptr,
                   HloInstruction** done_out = nullptr)
{
    auto module = std::make_unique<HloModule>("verifier_fuzz");
    Mesh mesh(4);
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({8, 8}));
    auto* start = b.AsyncStart(HloOpcode::kCollectivePermute, p,
                               PermuteAttrs(RingPairs(4)));
    auto* done = b.AsyncDone(start);
    comp->set_root(done);
    if (start_out != nullptr) *start_out = start;
    if (done_out != nullptr) *done_out = done;
    return module;
}

TEST(VerifierFuzz, StartWithoutDoneIsRejected)
{
    auto module = std::make_unique<HloModule>("verifier_fuzz");
    module->set_mesh(Mesh(4));
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({8, 8}));
    b.AsyncStart(HloOpcode::kCollectivePermute, p, PermuteAttrs(RingPairs(4)));
    comp->set_root(p);
    Status status = VerifyModule(*module);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("exactly one done"), std::string::npos)
        << status.ToString();
}

TEST(VerifierFuzz, TwoDonesPerStartAreRejected)
{
    HloInstruction* start = nullptr;
    auto module = BuildPermuteModule(&start);
    HloBuilder b(module->entry());
    b.AsyncDone(start);
    EXPECT_FALSE(VerifyModule(*module).ok());
}

TEST(VerifierFuzz, StartWrappingANonExchangeIsRejected)
{
    // A Start wraps one of the five sync exchange collectives; an
    // einsum, an async op or nothing at all is refused.
    const std::pair<std::optional<HloOpcode>, std::string> cases[] = {
        {HloOpcode::kEinsum, "async-start wraps einsum, not a sync exchange "
                             "collective"},
        {HloOpcode::kAsyncStart, "async-start wraps async-start, not a sync "
                                 "exchange collective"},
        {HloOpcode::kAsyncDone, "async-start wraps async-done, not a sync "
                                "exchange collective"},
        {std::nullopt, "async-start wraps no collective"},
    };
    for (const auto& [wrapped, message] : cases) {
        HloInstruction* start = nullptr;
        auto module = BuildPermuteModule(&start);
        start->mutable_attrs().wrapped = wrapped;
        EXPECT_EQ(VerifyModule(*module).message(),
                  "shape inference failed at %collective-permute-start.1: " +
                      message);
    }
}

TEST(VerifierFuzz, StartConsumedByNonDoneIsRejected)
{
    HloInstruction* start = nullptr;
    auto module = BuildPermuteModule(&start);
    HloBuilder b(module->entry());
    module->entry()->set_root(b.Negate(start));
    Status status = VerifyModule(*module);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("non-done"), std::string::npos)
        << status.ToString();
}

TEST(VerifierFuzz, DuplicatePermuteSourcesAreRejected)
{
    HloInstruction* start = nullptr;
    auto module = BuildPermuteModule(&start);
    start->mutable_attrs().source_target_pairs = {{0, 1}, {0, 2}};
    Status status = VerifyModule(*module);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("duplicate permute source"),
              std::string::npos)
        << status.ToString();
}

TEST(VerifierFuzz, DuplicatePermuteTargetsAreRejected)
{
    HloInstruction* start = nullptr;
    auto module = BuildPermuteModule(&start);
    start->mutable_attrs().source_target_pairs = {{0, 1}, {2, 1}};
    Status status = VerifyModule(*module);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("duplicate permute target"),
              std::string::npos)
        << status.ToString();
}

TEST(VerifierFuzz, PermutePairOutOfMeshRangeIsRejected)
{
    HloInstruction* start = nullptr;
    auto module = BuildPermuteModule(&start);
    start->mutable_attrs().source_target_pairs = {{0, 99}};
    Status status = VerifyModule(*module);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("out of range"), std::string::npos)
        << status.ToString();
}

TEST(VerifierFuzz, DanglingOperandFromForeignComputationIsRejected)
{
    // An operand edge pointing at an instruction that lives in a different
    // computation: the classic dangling pointer a rollback-less pipeline
    // could leave behind.
    HloComputation foreign("foreign");
    HloBuilder fb(&foreign);
    auto* alien = fb.Parameter(0, Shape({8, 8}));

    auto module = std::make_unique<HloModule>("verifier_fuzz");
    module->set_mesh(Mesh(4));
    HloComputation* comp = module->AddEntryComputation("main");
    comp->set_root(comp->AddInstruction(HloOpcode::kNegate, Shape({8, 8}),
                                        {alien}));
    Status status = VerifyModule(*module);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("not defined before"), std::string::npos)
        << status.ToString();
}

/**
 * A module whose entry holds `%p = parameter(0)` and `%n = negate(%p)`
 * (ids 0 and 1), plus a foreign computation holding `%q =
 * parameter(0)` and `%m = negate(%q)` under the same two ids: the
 * verifier tracks instructions by id, and an id alone must never pass a
 * foreign instruction off as a local one.
 */
struct ForeignIdFixture {
    std::unique_ptr<HloModule> module =
        std::make_unique<HloModule>("verifier_fuzz");
    HloComputation foreign{"foreign"};
    HloInstruction* p = nullptr;
    HloInstruction* n = nullptr;
    HloInstruction* q = nullptr;
    HloInstruction* m = nullptr;

    ForeignIdFixture()
    {
        HloComputation* comp = module->AddEntryComputation("main");
        HloBuilder b(comp);
        p = b.Parameter(0, Shape({8, 8}));
        n = b.Negate(p);
        comp->set_root(n);
        HloBuilder fb(&foreign);
        q = fb.Parameter(0, Shape({8, 8}));
        m = fb.Negate(q);
    }
};

TEST(VerifierFuzz, ForeignOperandSharingALocalIdIsRejected)
{
    ForeignIdFixture f;
    ASSERT_EQ(f.q->id(), f.p->id());
    HloComputation* comp = f.module->entry();
    auto* neg = comp->AddInstruction(HloOpcode::kNegate, Shape({8, 8}),
                                     {f.q});
    comp->set_root(neg);
    Status status = VerifyModule(*f.module);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.message(),
              StrCat("operand %", f.q->name(), " not defined before %",
                     neg->name()));
}

TEST(VerifierFuzz, ForeignRootSharingALocalIdIsRejected)
{
    ForeignIdFixture f;
    ASSERT_EQ(f.m->id(), f.n->id());
    f.module->entry()->set_root(f.m);
    Status status = VerifyModule(*f.module);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.message(), "root is not in the computation");
}

TEST(VerifierFuzz, ForeignScheduleEntrySharingALocalIdIsRejected)
{
    // The foreign parameter takes the local parameter's slot: the local
    // negate then finds its operand unscheduled.
    ForeignIdFixture f;
    HloComputation* comp = f.module->entry();
    comp->set_schedule({f.q, f.n});
    Status status = VerifyModule(*f.module);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.message(),
              StrCat("schedule places %", f.n->name(),
                     " before its operand %", f.p->name()));

    // A foreign negate in the local negate's slot reads a foreign
    // operand that the local parameter's slot does not hold.
    comp->set_schedule({f.p, f.m});
    status = VerifySchedule(*comp);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.message(),
              StrCat("schedule places %", f.m->name(),
                     " before its operand %", f.q->name()));
}

TEST(VerifierFuzz, NonTopologicalScheduleIsRejected)
{
    auto module = BuildPermuteModule();
    HloComputation* comp = module->entry();
    std::vector<HloInstruction*> reversed = comp->instructions();
    std::reverse(reversed.begin(), reversed.end());
    comp->set_schedule(reversed);  // passes the size CHECK...
    Status status = VerifyModule(*module);  // ...but not the verifier
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("before its operand"), std::string::npos)
        << status.ToString();
}

TEST(VerifierFuzz, ScheduleRepeatingAnInstructionIsRejected)
{
    HloInstruction* start = nullptr;
    HloInstruction* done = nullptr;
    auto module = BuildPermuteModule(&start, &done);
    HloComputation* comp = module->entry();
    std::vector<HloInstruction*> instrs = comp->instructions();
    ASSERT_EQ(instrs.size(), 3u);
    comp->set_schedule({instrs[0], start, start});
    EXPECT_FALSE(VerifyModule(*module).ok());
}

TEST(VerifierFuzz, DeclaredShapeMismatchIsRejected)
{
    auto module = std::make_unique<HloModule>("verifier_fuzz");
    module->set_mesh(Mesh(4));
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({8, 8}));
    // Negate must preserve shape; declare something else.
    comp->set_root(
        comp->AddInstruction(HloOpcode::kNegate, Shape({3, 3}), {p}));
    Status status = VerifyModule(*module);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("shape mismatch"), std::string::npos)
        << status.ToString();
}

/** Valid async AllToAll pair (§18 micro-batch pipelining) on a 4-ring. */
std::unique_ptr<HloModule>
BuildAllToAllPairModule(HloInstruction** start_out = nullptr,
                        HloInstruction** done_out = nullptr)
{
    auto module = std::make_unique<HloModule>("verifier_fuzz");
    Mesh mesh(4);
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({8, 8}));
    auto* start = b.AsyncStart(HloOpcode::kAllToAll, p,
                               GroupAttrs(0, mesh.Groups(0)));
    start->mutable_attrs().channel_id = comp->NextChannelId();
    auto* done = b.AsyncDone(start);
    comp->set_root(done);
    if (start_out != nullptr) *start_out = start;
    if (done_out != nullptr) *done_out = done;
    return module;
}

TEST(VerifierFuzz, AllToAllStartWithoutDoneIsRejected)
{
    auto module = std::make_unique<HloModule>("verifier_fuzz");
    module->set_mesh(Mesh(4));
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({8, 8}));
    b.AsyncStart(HloOpcode::kAllToAll, p, GroupAttrs(0, Mesh(4).Groups(0)));
    comp->set_root(p);
    Status status = VerifyModule(*module);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("exactly one done"), std::string::npos)
        << status.ToString();
}

TEST(VerifierFuzz, AllToAllStartWithDuplicateGroupDeviceIsRejected)
{
    HloInstruction* start = nullptr;
    auto module = BuildAllToAllPairModule(&start);
    start->mutable_attrs().groups = {{0, 1, 1, 3}};
    Status status = VerifyModule(*module);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("device 1 appears twice in groups"),
              std::string::npos)
        << status.ToString();
}

TEST(VerifierFuzz, AllToAllStartConsumedByNonDoneIsRejected)
{
    HloInstruction* start = nullptr;
    auto module = BuildAllToAllPairModule(&start);
    HloBuilder b(module->entry());
    module->entry()->set_root(b.Negate(start));
    Status status = VerifyModule(*module);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("non-done"), std::string::npos)
        << status.ToString();
}

TEST(VerifierFuzz, AllToAllDonePairedWithPermuteStartIsRejected)
{
    // A done must retire an exchange of its own kind: pairing an
    // all-to-all-done with a collective-permute-start is the classic
    // cross-wired Start/Done bug. In memory a Done has no kind of its
    // own (it reads its Start's), so the bug can only be written as
    // text, and the parser rejects it.
    auto module = BuildPermuteModule();
    std::string text = module->ToString();
    const std::string permute_done = "collective-permute-done(";
    const size_t at = text.find(permute_done);
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, permute_done.size(), "all-to-all-done(");
    auto parsed = ParseHloModule(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().message(),
              "%collective-permute-done.2: all-to-all-done waits on no "
              "all-to-all-start");
}

TEST(VerifierFuzz, DoneWithoutAStartIsRejected)
{
    // The done side of the same cross-wiring: a done whose operand is
    // ordinary data, in memory and as text.
    auto module = std::make_unique<HloModule>("verifier_fuzz");
    module->set_mesh(Mesh(4));
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({8, 8}));
    auto* neg = b.Negate(p);
    comp->set_root(
        comp->AddInstruction(HloOpcode::kAsyncDone, neg->shape(), {neg}));
    Status status = VerifyModule(*module);
    EXPECT_EQ(status.message(),
              "shape inference failed at %async-done.2: async-done operand "
              "must be an async-start");

    std::string text = module->ToString();
    const size_t at = text.find("async-done(");
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, std::string("async-done(").size(), "all-to-all-done(");
    auto parsed = ParseHloModule(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().message(),
              "%async-done.2: all-to-all-done waits on no all-to-all-start");
}

TEST(VerifierFuzz, AllToAllDoneChannelMismatchIsRejected)
{
    HloInstruction* start = nullptr;
    HloInstruction* done = nullptr;
    auto module = BuildAllToAllPairModule(&start, &done);
    done->mutable_attrs().channel_id = start->attrs().channel_id + 1;
    Status status = VerifyModule(*module);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("channel"), std::string::npos)
        << status.ToString();
    done->mutable_attrs().channel_id = start->attrs().channel_id;
    EXPECT_TRUE(VerifyModule(*module).ok());
}

TEST(VerifierFuzz, NonDivisibleAllToAllDimIsRejected)
{
    // 6 rows across a 4-group exchange: no equal per-peer chunk exists.
    // The builder's shape inference refuses to construct this, so feed
    // the verifier the raw instruction.
    auto module = std::make_unique<HloModule>("verifier_fuzz");
    Mesh mesh(4);
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({6, 8}));
    InstrAttrs attrs;
    attrs.dim = 0;
    attrs.groups = mesh.Groups(0);
    comp->set_root(comp->AddInstruction(HloOpcode::kAllToAll, Shape({6, 8}),
                                        {p}, std::move(attrs)));
    Status status = VerifyModule(*module);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("not divisible"), std::string::npos)
        << status.ToString();
}

TEST(VerifierFuzz, NonDivisibleAllToAllStartDimIsRejected)
{
    auto module = std::make_unique<HloModule>("verifier_fuzz");
    Mesh mesh(4);
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({6, 8}));
    InstrAttrs attrs;
    attrs.dim = 0;
    attrs.groups = mesh.Groups(0);
    attrs.wrapped = HloOpcode::kAllToAll;
    auto* start = comp->AddInstruction(HloOpcode::kAsyncStart,
                                       Shape({6, 8}), {p},
                                       std::move(attrs));
    comp->set_root(comp->AddInstruction(HloOpcode::kAsyncDone,
                                        Shape({6, 8}), {start}));
    Status status = VerifyModule(*module);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("not divisible"), std::string::npos)
        << status.ToString();
}

TEST(VerifierFuzz, ChunkAttributeOnNonPermuteIsRejected)
{
    auto module = std::make_unique<HloModule>("verifier_fuzz");
    Mesh mesh(4);
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({8, 8}));
    auto* ag = b.AllGather(p, 0, mesh.Groups(0));
    ag->mutable_attrs().a2a_chunk = 1;
    comp->set_root(ag);
    Status status = VerifyModule(*module);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("non-permute"), std::string::npos)
        << status.ToString();
}

/**
 * Seeded corruption loop: start from a valid module, apply one random
 * corruption, and require an error Status (no crash, no throw, no false
 * acceptance).
 */
class VerifierCorruptionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(VerifierCorruptionFuzz, CorruptedModuleNeverCrashesVerifier)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 7919u + 3u);
    HloInstruction* start = nullptr;
    HloInstruction* done = nullptr;
    auto module = BuildPermuteModule(&start, &done);
    HloComputation* comp = module->entry();
    ASSERT_TRUE(VerifyModule(*module).ok());

    switch (rng.Next() % 5) {
      case 0:
          start->mutable_attrs().source_target_pairs = {
              {0, 1}, {0, static_cast<int64_t>(rng.Next() % 4)}};
          break;
      case 1:
          start->mutable_attrs().source_target_pairs = {
              {static_cast<int64_t>(rng.Next() % 1000) + 4, 0}};
          break;
      case 2: {
          std::vector<HloInstruction*> sched = comp->instructions();
          std::reverse(sched.begin(), sched.end());
          comp->set_schedule(sched);
          break;
      }
      case 3: {
          HloBuilder b(comp);
          comp->set_root(b.Negate(start));
          break;
      }
      default:
          done->mutable_attrs().source_target_pairs = {{0, 1}, {1, 0}};
          comp->set_root(comp->AddInstruction(
              HloOpcode::kNegate, Shape({2, 2}), {done}));
          break;
    }
    Status status;
    EXPECT_NO_THROW(status = VerifyModule(*module));
    EXPECT_FALSE(status.ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierCorruptionFuzz,
                         ::testing::Range(1, 33));

}  // namespace
}  // namespace overlap
