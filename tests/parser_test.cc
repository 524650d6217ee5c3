#include <gtest/gtest.h>

#include <random>

#include "hlo/builder.h"
#include "hlo/parser.h"
#include "hlo/verifier.h"
#include "interp/evaluator.h"
#include "passes/async.h"
#include "passes/decompose.h"

namespace overlap {
namespace {

TEST(ParserTest, OpcodeNamesRoundTrip)
{
    for (int op = 0; op <= static_cast<int>(HloOpcode::kTuple); ++op) {
        HloOpcode opcode = static_cast<HloOpcode>(op);
        auto parsed = HloOpcodeFromName(HloOpcodeName(opcode));
        ASSERT_TRUE(parsed.ok()) << HloOpcodeName(opcode);
        EXPECT_EQ(parsed.value(), opcode);
    }
    EXPECT_FALSE(HloOpcodeFromName("frobnicate").ok());
}

TEST(ParserTest, ParsesHandWrittenModule)
{
    const char* text = R"(
module tiny mesh[4]
computation main {
  %x = f32[2,4] parameter(), index=0
  %w = f32[4,8] parameter(), index=1
  %g = f32[8,4] all-gather(%x), dim=0, groups={0,1,2,3}
  ROOT %y = f32[8,8] einsum(%g, %w), spec=bf,fh->bh
}
)";
    auto module = ParseHloModule(text);
    ASSERT_TRUE(module.ok()) << module.status().ToString();
    EXPECT_EQ((*module)->name(), "tiny");
    ASSERT_TRUE((*module)->mesh().has_value());
    EXPECT_EQ((*module)->mesh()->num_devices(), 4);
    HloComputation* comp = (*module)->entry();
    EXPECT_EQ(comp->instruction_count(), 4);
    EXPECT_EQ(comp->root()->opcode(), HloOpcode::kEinsum);
    EXPECT_EQ(comp->root()->attrs().einsum_spec, "bf,fh->bh");
}

TEST(ParserTest, RoundTripsBuilderModule)
{
    HloModule module("roundtrip");
    module.set_mesh(Mesh(2, 2));
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {4, 8}), "acts");
    auto* w = b.Parameter(1, Shape(DType::kBF16, {8, 4}));
    auto* ag = b.AllGather(p, 0, Mesh(2, 2).Groups(1));
    auto* e = b.Einsum(ag, w, "bf,fh->bh");
    auto* rs = b.ReduceScatter(e, 1, Mesh(2, 2).Groups(0));
    auto* idx = b.Multiply(b.AxisIndex(0), b.ConstantIndex(2));
    auto* sliced = b.DynamicSliceOnDim(rs, 0, idx, 2);
    comp->set_root(b.Pad(sliced, {1, 0}, {0, 1}, -1.5f));

    std::string text = module.ToString();
    auto parsed = ParseHloModule(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString()
                             << "\ntext was:\n"
                             << text;
    // Printing the parsed module reproduces the text exactly.
    EXPECT_EQ((*parsed)->ToString(), text);
}

/** Shapes past the inline rank (DESIGN.md §19) print and parse back. */
TEST(ParserTest, RoundTripsRankSevenInstruction)
{
    HloModule module("rank7");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kF32, {2, 1, 3, 1, 2, 1, 4}));
    auto* t = b.Transpose(p, {6, 5, 4, 3, 2, 1, 0});
    comp->set_root(b.Negate(t));

    std::string text = module.ToString();
    EXPECT_NE(text.find("f32[4,1,2,1,3,1,2] transpose"), std::string::npos)
        << text;
    auto parsed = ParseHloModule(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
    EXPECT_EQ((*parsed)->ToString(), text);
    EXPECT_TRUE(VerifyModule(**parsed).ok());
    EXPECT_EQ((*parsed)->entry()->root()->shape(),
              Shape(DType::kF32, {4, 1, 2, 1, 3, 1, 2}));
}

TEST(ParserTest, RoundTripPreservesSemantics)
{
    HloModule module("sem");
    module.set_mesh(Mesh(2));
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2, 2}));
    auto* c = b.Constant(Tensor(Shape({2, 2}), {1, 2, 3, 4}));
    comp->set_root(b.Einsum(b.Add(p, c), c, "mk,kn->mn"));

    auto parsed = ParseHloModule(module.ToString());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

    SpmdEvaluator eval((Mesh(2)));
    Tensor input = Tensor::Random(Shape({2, 2}), 3);
    auto original = eval.Evaluate(*comp, {{input}});
    auto reparsed = eval.Evaluate(*(*parsed)->entry(), {{input}});
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(reparsed.ok());
    for (int d = 0; d < 2; ++d) {
        EXPECT_TRUE((*reparsed)[d].AllClose((*original)[d], 1e-5f));
    }
}

TEST(ParserTest, RoundTripsDecomposedLoop)
{
    // The acid test: a full unrolled CollectiveEinsum loop with async
    // permutes, fusion groups, loop groups and index arithmetic.
    HloModule module("loop");
    Mesh mesh(4);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {8, 16}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {16, 8}));
    auto* ag = b.AllGather(p, 0, mesh.Groups(0));
    comp->set_root(b.Einsum(ag, w, "bf,fh->bh"));
    CostModel cost{HardwareSpec{}};
    DecomposeOptions options;
    options.use_cost_model = false;
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    ASSERT_TRUE(decomposer.Run(comp).ok());
    ASSERT_TRUE(CreateAsyncPairs(comp, HloOpcode::kCollectivePermute).ok());

    std::string text = module.ToString();
    auto parsed = ParseHloModule(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ((*parsed)->ToString(), text);
    EXPECT_TRUE(VerifyModule(**parsed).ok());
}

TEST(ParserTest, RoundTripsDecomposedAllToAllLoop)
{
    // The §18 form: a ring-decomposed MoE dispatch whose chunk permutes
    // carry `chunk=` attributes (which peer offset each exchange
    // serves), then the async split's channel ids on top.
    HloModule module("a2a_loop");
    Mesh mesh(4);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* tokens = b.Parameter(0, Shape(DType::kBF16, {8, 16}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {16, 8}));
    auto* a2a = b.AllToAll(tokens, 0, mesh.Groups(0));
    comp->set_root(b.Einsum(a2a, w, "td,dh->th"));
    CostModel cost{HardwareSpec{}};
    DecomposeOptions options;
    options.use_cost_model = false;
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    auto stats = decomposer.Run(comp);
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(stats->all_to_all_sites, 1);
    ASSERT_TRUE(CreateAsyncPairs(comp, HloOpcode::kCollectivePermute).ok());

    std::string text = module.ToString();
    EXPECT_NE(text.find("chunk="), std::string::npos) << text;
    auto parsed = ParseHloModule(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ((*parsed)->ToString(), text);
    EXPECT_TRUE(VerifyModule(**parsed).ok());
}

TEST(ParserTest, RoundTripsAsyncAllToAllPair)
{
    // The §18 micro-batch pipelined form: a blocking exchange split
    // into an async Start/Done pair sharing a channel.
    HloModule module("a2a_async");
    Mesh mesh(4);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {8, 16}));
    auto* start = b.AsyncStart(HloOpcode::kAllToAll, p,
                               GroupAttrs(0, mesh.Groups(0)));
    start->mutable_attrs().channel_id = comp->NextChannelId();
    auto* done = b.AsyncDone(start);
    comp->set_root(done);
    ASSERT_TRUE(VerifyModule(module).ok());

    std::string text = module.ToString();
    EXPECT_NE(text.find("all-to-all-start"), std::string::npos) << text;
    EXPECT_NE(text.find("all-to-all-done"), std::string::npos) << text;
    auto parsed = ParseHloModule(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ((*parsed)->ToString(), text);
    EXPECT_TRUE(VerifyModule(**parsed).ok());
}

TEST(ParserTest, RoundTripsAsyncPairOfEveryKind)
{
    // "<kind>-start" / "<kind>-done" for each of the five collectives a
    // Start may wrap, on the rings of a 2 x 4 torus's second axis.
    const HloOpcode kinds[] = {
        HloOpcode::kAllGather, HloOpcode::kReduceScatter,
        HloOpcode::kAllReduce, HloOpcode::kAllToAll,
        HloOpcode::kCollectivePermute,
    };
    const Mesh mesh(2, 4);
    for (HloOpcode kind : kinds) {
        SCOPED_TRACE(HloOpcodeName(kind));
        HloModule module("async");
        module.set_mesh(mesh);
        HloComputation* comp = module.AddEntryComputation("main");
        HloBuilder b(comp);
        auto* p = b.Parameter(0, Shape({8, 16}));
        InstrAttrs attrs =
            kind == HloOpcode::kCollectivePermute
                ? PermuteAttrs(RingShiftPairs(mesh, 1, 1))
                : GroupAttrs(kind == HloOpcode::kAllReduce ? -1 : 0,
                             mesh.Groups(1));
        attrs.channel_id = 5;
        comp->set_root(b.AsyncDone(b.AsyncStart(kind, p, std::move(attrs))));

        std::string text = module.ToString();
        const std::string name = HloOpcodeName(kind);
        EXPECT_NE(text.find(" " + name + "-start(%"), std::string::npos)
            << text;
        EXPECT_NE(text.find(" " + name + "-done(%"), std::string::npos)
            << text;
        auto parsed = ParseHloModule(text);
        ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
        EXPECT_EQ((*parsed)->ToString(), text);
        EXPECT_EQ((*parsed)->entry()->root()->collective_opcode(), kind);
    }
}

TEST(ParserTest, RejectsADoneOfAnotherKind)
{
    // A Done's kind is its Start's; text that names another is refused
    // before the module is built.
    const char* text = R"(
module m mesh[2]
computation main {
  %p = f32[2] parameter(), index=0
  %s = f32[2] collective-permute-start(%p), pairs={0,1}{1,0}
  ROOT %d = f32[2] all-to-all-done(%s)
}
)";
    auto parsed = ParseHloModule(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().message(),
              "%d: all-to-all-done waits on no all-to-all-start");
}

TEST(ParserTest, RejectsAStartOfANonExchange)
{
    const char* text = R"(
module m mesh[2]
computation main {
  %p = f32[2,2] parameter(), index=0
  %s = f32[2,2] einsum-start(%p, %p), spec=ab,bc->ac
  ROOT %d = f32[2,2] einsum-done(%s)
}
)";
    auto parsed = ParseHloModule(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().message(),
              "shape inference failed at %s: async-start wraps einsum, not "
              "a sync exchange collective");
}

TEST(ParserTest, RoundTripsChannelIds)
{
    HloModule module("chan");
    Mesh mesh(4);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2, 4}));
    auto* start = b.AsyncStart(HloOpcode::kCollectivePermute, p,
                               PermuteAttrs(RingShiftPairs(mesh, 0, 1)));
    auto* done = b.AsyncDone(start);
    start->mutable_attrs().channel_id = 7;
    done->mutable_attrs().channel_id = 7;
    auto* ag = b.AllGather(done, 0, mesh.Groups(0));
    ag->mutable_attrs().channel_id = 8;
    comp->set_root(ag);

    std::string text = module.ToString();
    EXPECT_NE(text.find("channel=7"), std::string::npos);
    EXPECT_NE(text.find("channel=8"), std::string::npos);
    auto parsed = ParseHloModule(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ((*parsed)->ToString(), text);
}

TEST(ParserTest, VerifierRejectsMismatchedStartDoneChannels)
{
    HloModule module("chan");
    Mesh mesh(2);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    auto* start = b.AsyncStart(HloOpcode::kCollectivePermute, p,
                               PermuteAttrs({{0, 1}, {1, 0}}));
    auto* done = b.AsyncDone(start);
    start->mutable_attrs().channel_id = 3;
    done->mutable_attrs().channel_id = 4;
    comp->set_root(done);
    EXPECT_FALSE(VerifyModule(module).ok());
    done->mutable_attrs().channel_id = 3;
    EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(ParserTest, FuzzRoundTripsCollectiveAttributes)
{
    // Randomized modules exercising every attribute the difftest repro
    // files can emit — replica groups, source-target pairs, channel
    // ids, dims — must print/parse/print to the identical text.
    std::mt19937_64 rng(2024);
    for (int trial = 0; trial < 50; ++trial) {
        int64_t n = 2 + static_cast<int64_t>(rng() % 4);  // ring 2-5
        Mesh mesh = rng() % 2 == 0 ? Mesh(n) : Mesh(2, n);
        int64_t axis = mesh.num_axes() - 1;
        HloModule module("fuzz");
        module.set_mesh(mesh);
        HloComputation* comp = module.AddEntryComputation("main");
        HloBuilder b(comp);
        auto* p = b.Parameter(0, Shape({2, n}));
        HloInstruction* value = p;
        int64_t ops = 1 + static_cast<int64_t>(rng() % 4);
        for (int64_t i = 0; i < ops; ++i) {
            switch (rng() % 8) {
              case 0: {
                  auto* ag = b.AllGather(value, 0, mesh.Groups(axis));
                  if (rng() % 2 == 0) {
                      ag->mutable_attrs().channel_id =
                          static_cast<int64_t>(rng() % 100);
                  }
                  // Keep shapes stable: scatter straight back.
                  value = b.ReduceScatter(ag, 0, mesh.Groups(axis));
                  break;
              }
              case 1: {
                  int64_t step = 1 + static_cast<int64_t>(rng() % (n - 1));
                  value = b.CollectivePermute(
                      value, RingShiftPairs(mesh, axis, step));
                  if (rng() % 2 == 0) {
                      value->mutable_attrs().channel_id =
                          static_cast<int64_t>(rng() % 100);
                  }
                  break;
              }
              case 2: {
                  int64_t step = 1 + static_cast<int64_t>(rng() % (n - 1));
                  auto* start = b.AsyncStart(
                      HloOpcode::kCollectivePermute, value,
                      PermuteAttrs(RingShiftPairs(mesh, axis, step)));
                  auto* done = b.AsyncDone(start);
                  int64_t channel = static_cast<int64_t>(rng() % 100);
                  start->mutable_attrs().channel_id = channel;
                  done->mutable_attrs().channel_id = channel;
                  value = done;
                  break;
              }
              case 3: {
                  auto* ar = b.AllReduce(value, mesh.Groups(axis));
                  if (rng() % 2 == 0) {
                      ar->mutable_attrs().channel_id =
                          static_cast<int64_t>(rng() % 100);
                  }
                  value = ar;
                  break;
              }
              case 4: {
                  // Blocking MoE exchange (§18); dim 1 has extent n, so
                  // the per-peer chunks always split evenly.
                  auto* a2a = b.AllToAll(value, 1, mesh.Groups(axis));
                  if (rng() % 2 == 0) {
                      a2a->mutable_attrs().channel_id =
                          static_cast<int64_t>(rng() % 100);
                  }
                  value = a2a;
                  break;
              }
              case 5: {
                  auto* start = b.AsyncStart(HloOpcode::kAllToAll, value,
                                             GroupAttrs(1, mesh.Groups(axis)));
                  auto* done = b.AsyncDone(start);
                  int64_t channel = static_cast<int64_t>(rng() % 100);
                  start->mutable_attrs().channel_id = channel;
                  done->mutable_attrs().channel_id = channel;
                  value = done;
                  break;
              }
              case 6: {
                  // A §18 ring-loop chunk permute: step-k shift tagged
                  // with the peer offset it serves.
                  int64_t k = 1 + static_cast<int64_t>(rng() % (n - 1));
                  value = b.CollectivePermute(
                      value, RingShiftPairs(mesh, axis, k));
                  value->mutable_attrs().a2a_chunk = k;
                  break;
              }
              default:
                  value = b.Negate(value);
                  break;
            }
        }
        comp->set_root(value);
        ASSERT_TRUE(VerifyModule(module).ok()) << module.ToString();

        std::string text = module.ToString();
        auto parsed = ParseHloModule(text);
        ASSERT_TRUE(parsed.ok())
            << parsed.status().ToString() << "\ntext was:\n" << text;
        EXPECT_EQ((*parsed)->ToString(), text) << "trial " << trial;
        // Channel bookkeeping survives the trip.
        EXPECT_EQ((*parsed)->entry()->NextChannelId(),
                  comp->NextChannelId());
    }
}

TEST(ParserTest, RejectsMalformedInput)
{
    EXPECT_FALSE(ParseHloModule("nonsense").ok());
    EXPECT_FALSE(ParseHloModule("module m\ncomputation c {\n").ok());
    EXPECT_FALSE(ParseHloModule("module m\ncomputation c {\n"
                                "  %a = f32[2] negate(%missing)\n}\n")
                     .ok());
    EXPECT_FALSE(ParseHloModule("module m\ncomputation c {\n"
                                "  %a = f32[2] frobnicate()\n}\n")
                     .ok());
    // Shape mismatch caught by the verifier.
    EXPECT_FALSE(ParseHloModule("module m\ncomputation c {\n"
                                "  %a = f32[2] parameter(), index=0\n"
                                "  ROOT %b = f32[3] negate(%a)\n}\n")
                     .ok());
}

}  // namespace
}  // namespace overlap
