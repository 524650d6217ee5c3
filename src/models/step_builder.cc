#include "models/step_builder.h"

#include "spmd/spmd_builder.h"
#include "support/strings.h"

namespace overlap {
namespace {

constexpr int64_t kX = 0;  // model/feature mesh axis (M in Figure 3)
constexpr int64_t kY = 1;  // batch mesh axis (N in Figure 3)

Shape
BF16(std::vector<int64_t> dims)
{
    return Shape(DType::kBF16, std::move(dims));
}

/**
 * Builds one dense transformer layer (fwd + bwd) with the 2-D strategy.
 * Collects every terminal value into `roots`.
 */
class DenseLayerBuilder {
  public:
    DenseLayerBuilder(SpmdBuilder* spmd, const ModelConfig& config)
        : spmd_(*spmd), config_(config) {}

    Status Build(std::vector<HloInstruction*>* roots)
    {
        const int64_t T = config_.global_tokens();
        const int64_t D = config_.model_dim;
        const int64_t H = config_.ff_dim;

        const TensorSharding act_sh = TensorSharding::OnDims(2, 0, kY, 1, kX);
        const TensorSharding w_in_sh =
            TensorSharding::OnDims(2, 0, kY, 1, kX);  // gathered weights
        const TensorSharding w_out_sh =
            TensorSharding::OnDims(2, 0, kX, 1, kY);  // contracted weights

        int64_t p = 0;
        auto act = spmd_.Parameter(p++, BF16({T, D}), act_sh, "act");
        auto w_qkv = spmd_.Parameter(p++, BF16({D, 3 * D}), w_in_sh,
                                     "w_qkv");
        auto w_out = spmd_.Parameter(p++, BF16({D, D}), w_out_sh, "w_out");
        auto w_ffn1 = spmd_.Parameter(p++, BF16({D, H}), w_in_sh, "w_ffn1");
        auto w_ffn2 = spmd_.Parameter(p++, BF16({H, D}), w_out_sh,
                                      "w_ffn2");
        auto d_out = spmd_.Parameter(p++, BF16({T, D}), act_sh, "d_out");
        OVERLAP_RETURN_IF_ERROR(StatusOfAll(
            {&act, &w_qkv, &w_out, &w_ffn1, &w_ffn2, &d_out}));

        // ---- forward: attention ----
        auto qkv = spmd_.Einsum(*act, *w_qkv, "td,dq->tq",
                                TensorSharding::OnDims(2, 0, kY, 1, kX));
        if (!qkv.ok()) return qkv.status();
        ShardedValue ctx = AttentionCore(*qkv, /*backward=*/false);
        auto attn = spmd_.Einsum(ctx, *w_out, "td,df->tf", act_sh);
        if (!attn.ok()) return attn.status();
        auto res1 = spmd_.Add(*attn, *act);
        if (!res1.ok()) return res1.status();

        // ---- forward: MLP ----
        auto ffn1 = spmd_.Einsum(*res1, *w_ffn1, "td,dh->th",
                                 TensorSharding::OnDims(2, 0, kY, 1, kX));
        if (!ffn1.ok()) return ffn1.status();
        // Activation function (one element-wise pass over the ff tensor).
        ShardedValue ffn1_act = *ffn1;
        ffn1_act.local =
            spmd_.hlo().Multiply(ffn1->local, ffn1->local);
        auto ffn2 = spmd_.Einsum(ffn1_act, *w_ffn2, "th,hd->td", act_sh);
        if (!ffn2.ok()) return ffn2.status();
        auto out = spmd_.Add(*ffn2, *res1);
        if (!out.ok()) return out.status();
        roots->push_back(out->local);

        // ---- backward: MLP ----
        auto d_ffn1 = spmd_.Einsum(*d_out, *w_ffn2, "td,hd->th",
                                   TensorSharding::OnDims(2, 0, kY, 1, kX));
        if (!d_ffn1.ok()) return d_ffn1.status();
        auto d_w_ffn2 =
            spmd_.Einsum(ffn1_act, *d_out, "th,td->hd", w_out_sh);
        if (!d_w_ffn2.ok()) return d_w_ffn2.status();
        auto d_res1 = spmd_.Einsum(*d_ffn1, *w_ffn1, "th,dh->td", act_sh);
        if (!d_res1.ok()) return d_res1.status();
        auto d_w_ffn1 =
            spmd_.Einsum(*res1, *d_ffn1, "td,th->dh", w_in_sh);
        if (!d_w_ffn1.ok()) return d_w_ffn1.status();
        roots->push_back(d_w_ffn2->local);
        roots->push_back(d_w_ffn1->local);

        // ---- backward: attention ----
        auto d_ctx = spmd_.Einsum(*d_res1, *w_out, "tf,df->td",
                                  TensorSharding::OnDims(2, 0, kY, 1, kX));
        if (!d_ctx.ok()) return d_ctx.status();
        auto d_w_out = spmd_.Einsum(ctx, *d_res1, "td,tf->df", w_out_sh);
        if (!d_w_out.ok()) return d_w_out.status();
        // Attention-core gradients (local batched einsums).
        ShardedValue d_core = AttentionCore(*qkv, /*backward=*/true);
        // Projection gradients; the [T, 3D] qkv value stands in for its
        // own cotangent (identical shape, sharding and cost).
        auto d_act = spmd_.Einsum(*qkv, *w_qkv, "tq,dq->td", act_sh);
        if (!d_act.ok()) return d_act.status();
        auto d_w_qkv = spmd_.Einsum(*act, *qkv, "td,tq->dq", w_in_sh);
        if (!d_w_qkv.ok()) return d_w_qkv.status();
        roots->push_back(d_w_out->local);
        roots->push_back(d_ctx->local);
        roots->push_back(d_core.local);
        roots->push_back(d_act->local);
        roots->push_back(d_w_qkv->local);
        return Status::Ok();
    }

  private:
    static Status StatusOfAll(
        std::initializer_list<const StatusOr<ShardedValue>*> values)
    {
        for (const auto* v : values) {
            if (!v->ok()) return v->status();
        }
        return Status::Ok();
    }

    /**
     * The attention core: local (collective-free) batched einsums over
     * [B, heads, S, *] tensors — batch is sharded along y and heads
     * along x on both operands, so scores and context need no
     * communication. Returns a [T, D]-sharded value. `backward` emits
     * the same-cost gradient einsums.
     */
    ShardedValue AttentionCore(const ShardedValue& qkv, bool backward)
    {
        HloBuilder& b = spmd_.hlo();
        const int64_t batch_local = config_.batch_size / config_.mesh_y;
        const int64_t seq = config_.seq_len;
        const int64_t heads_local = config_.num_heads() / config_.mesh_x;
        const int64_t e = config_.head_dim;
        const int64_t d_local = heads_local * e;

        // qkv local: [T/y, 3*D/x] -> q/k/v [B/y, h/x, S, e].
        HloInstruction* qkv4 = b.Reshape(
            qkv.local, {batch_local, seq, 3 * heads_local, e});
        auto head_slice = [&](int64_t index) {
            HloInstruction* s = b.Slice(
                qkv4, {0, 0, index * heads_local, 0},
                {batch_local, seq, heads_local, e});
            return b.Transpose(s, {0, 2, 1, 3});
        };
        HloInstruction* q = head_slice(0);
        HloInstruction* k = head_slice(1);
        HloInstruction* v = head_slice(2);

        HloInstruction* scores = b.Einsum(q, k, "bhse,bhte->bhst");
        // Softmax stand-in: two element-wise passes over the scores.
        HloInstruction* probs = b.Multiply(scores, scores);
        probs = b.Add(probs, scores);
        HloInstruction* context = b.Einsum(probs, v, "bhst,bhte->bhse");
        if (backward) {
            // dScores and dV have the same cost as the forward pair.
            HloInstruction* d_scores =
                b.Einsum(context, v, "bhse,bhte->bhst");
            HloInstruction* d_probs = b.Multiply(d_scores, d_scores);
            context = b.Einsum(d_probs, v, "bhst,bhte->bhse");
        }
        HloInstruction* merged = b.Transpose(context, {0, 2, 1, 3});
        HloInstruction* flat = b.Reshape(
            merged, {batch_local * seq, d_local});

        ShardedValue value;
        value.local = flat;
        value.global = BF16({config_.global_tokens(), config_.model_dim});
        value.sharding = TensorSharding::OnDims(2, 0, kY, 1, kX);
        return value;
    }

    SpmdBuilder& spmd_;
    const ModelConfig& config_;
};

/**
 * Splits `value` along tensor dim 0 into `parts` equal local slices
 * (micro-batches). The slices partition the local shard, so each keeps
 * the parent's sharding with a proportionally smaller global extent.
 */
StatusOr<std::vector<ShardedValue>>
SplitDim0(SpmdBuilder& spmd, const ShardedValue& value, int64_t parts)
{
    const Shape& local = value.local->shape();
    if (local.dim(0) % parts != 0) {
        return InvalidArgument(
            StrCat("micro-batching needs local dim 0 (", local.dim(0),
                   ") divisible by ", parts, " micro-batches"));
    }
    const int64_t piece = local.dim(0) / parts;
    std::vector<ShardedValue> chunks;
    chunks.reserve(static_cast<size_t>(parts));
    for (int64_t m = 0; m < parts; ++m) {
        std::vector<int64_t> starts(
            static_cast<size_t>(local.rank()), 0);
        starts[0] = m * piece;
        std::vector<int64_t> sizes(local.dims().begin(),
                                   local.dims().end());
        sizes[0] = piece;
        ShardedValue chunk = value;
        chunk.local = spmd.hlo().Slice(value.local, starts, sizes);
        chunk.global.set_dim(0, value.global.dim(0) / parts);
        chunks.push_back(std::move(chunk));
    }
    return chunks;
}

/** Concatenates per-micro-batch values back along tensor dim 0. */
ShardedValue
ConcatDim0(SpmdBuilder& spmd, const std::vector<ShardedValue>& chunks)
{
    if (chunks.size() == 1) return chunks[0];
    std::vector<HloInstruction*> locals;
    locals.reserve(chunks.size());
    int64_t global_dim0 = 0;
    for (const ShardedValue& chunk : chunks) {
        locals.push_back(chunk.local);
        global_dim0 += chunk.global.dim(0);
    }
    ShardedValue out = chunks[0];
    out.local = spmd.hlo().Concatenate(locals, 0);
    out.global.set_dim(0, global_dim0);
    return out;
}

/** MoE FFN block (GLaM-style): AllToAll dispatch, expert matmuls,
 *  AllToAll combine — forward and backward. With
 *  `config.moe_micro_batches > 1` the token stream is split into
 *  micro-batches, each with its own dispatch -> expert -> combine
 *  chain (DESIGN.md §18).
 *
 *  Sharding: experts live along mesh y (the AllToAll ring); each
 *  expert's FFN is Megatron-sharded along x (w1 column-parallel, w2
 *  with the model dim split), with the expert weights replicated along
 *  y — each y position holds its own experts' values. Token features
 *  are AllGathered over x *before* the dispatch exchange, so the
 *  AllToAll lands directly adjacent to the expert einsum it feeds (and
 *  the second einsum directly feeds the combine AllToAll) — the §18
 *  decomposition sites. */
Status
BuildMoeFfn(SpmdBuilder& spmd, const ModelConfig& config, int64_t* p,
            std::vector<HloInstruction*>* roots)
{
    const int64_t T = config.global_tokens();
    const int64_t D = config.model_dim;
    const int64_t H = config.ff_dim;  // per-expert feedforward width
    const int64_t E = config.num_experts;
    const TensorSharding act_sh = TensorSharding::OnDims(2, 0, kY, 1, kX);

    auto tokens =
        spmd.Parameter((*p)++, BF16({T, D}), act_sh, "moe_tokens");
    auto w_gate = spmd.Parameter(
        (*p)++, BF16({D, E}), TensorSharding::OnDim(2, 0, kX), "w_gate");
    auto w1 = spmd.Parameter((*p)++, BF16({D, H}),
                             TensorSharding::OnDim(2, 1, kX),
                             "w_expert1");
    auto w2 = spmd.Parameter((*p)++, BF16({H, D}),
                             TensorSharding::OnDim(2, 1, kX),
                             "w_expert2");
    auto d_moe = spmd.Parameter((*p)++, BF16({T, D}), act_sh, "d_moe");
    if (!tokens.ok()) return tokens.status();
    if (!w_gate.ok()) return w_gate.status();
    if (!w1.ok()) return w1.status();
    if (!w2.ok()) return w2.status();
    if (!d_moe.ok()) return d_moe.status();

    // Gating: small, ends in an AllReduce of the logits over x.
    auto logits = spmd.Einsum(*tokens, *w_gate, "td,de->te",
                              TensorSharding::OnDim(2, 0, kY));
    if (!logits.ok()) return logits.status();
    roots->push_back(logits->local);

    // Top-2 gating: each token is dispatched to two experts, doubling
    // both the AllToAll volume and the expert FLOPs (GLaM's capacity
    // factor). The duplicated token stream is built locally.
    ShardedValue doubled = *tokens;
    doubled.local = spmd.hlo().Concatenate(
        {tokens->local, tokens->local}, 0);
    doubled.global.set_dim(0, 2 * T);

    // Token features are gathered over x up front so every exchange
    // below moves feature-complete rows and lands directly against the
    // expert einsums (no resharding collective in between).
    auto gathered = spmd.AllGatherDim(doubled, 1);
    if (!gathered.ok()) return gathered.status();

    // Dispatch: tokens move to their experts' devices (the blocking
    // form stays exposed — the GLaM discussion in §6.1; the ring
    // decomposition and micro-batch pipelining of §18 attack it).
    const int64_t M = config.moe_micro_batches > 1
                          ? config.moe_micro_batches
                          : int64_t{1};
    ShardedValue h1g;  // [2T, H] expert hidden, feature-gathered
    ShardedValue combined;
    if (M <= 1) {
        auto disp = spmd.AllToAllDim(*gathered, 0, kY);
        if (!disp.ok()) return disp.status();
        auto h1 = spmd.Einsum(*disp, *w1, "td,dh->th", act_sh);
        if (!h1.ok()) return h1.status();
        auto h1gv = spmd.AllGatherDim(*h1, 1);
        if (!h1gv.ok()) return h1gv.status();
        auto h2 = spmd.Einsum(*h1gv, *w2, "th,hd->td", act_sh);
        if (!h2.ok()) return h2.status();
        auto comb = spmd.AllToAllDim(*h2, 0, kY);
        if (!comb.ok()) return comb.status();
        h1g = *h1gv;
        combined = *comb;
    } else {
        // Micro-batch pipelining (§18): each micro-batch runs its own
        // dispatch -> expert -> combine chain; with async AllToAlls the
        // scheduler hides micro-batch k's exchanges behind micro-batch
        // k±1's expert compute.
        auto chunks = SplitDim0(spmd, *gathered, M);
        if (!chunks.ok()) return chunks.status();
        std::vector<ShardedValue> h1g_chunks;
        std::vector<ShardedValue> comb_chunks;
        for (const ShardedValue& chunk : *chunks) {
            auto disp = spmd.AllToAllDim(chunk, 0, kY);
            if (!disp.ok()) return disp.status();
            auto h1 = spmd.Einsum(*disp, *w1, "td,dh->th", act_sh);
            if (!h1.ok()) return h1.status();
            auto h1gv = spmd.AllGatherDim(*h1, 1);
            if (!h1gv.ok()) return h1gv.status();
            auto h2 = spmd.Einsum(*h1gv, *w2, "th,hd->td", act_sh);
            if (!h2.ok()) return h2.status();
            auto comb = spmd.AllToAllDim(*h2, 0, kY);
            if (!comb.ok()) return comb.status();
            h1g_chunks.push_back(*h1gv);
            comb_chunks.push_back(*comb);
        }
        h1g = ConcatDim0(spmd, h1g_chunks);
        combined = ConcatDim0(spmd, comb_chunks);
    }
    roots->push_back(combined.local);

    // Backward: combine-grad A2A, expert matmul grads, dispatch-grad A2A.
    ShardedValue d_doubled = *d_moe;
    d_doubled.local =
        spmd.hlo().Concatenate({d_moe->local, d_moe->local}, 0);
    d_doubled.global.set_dim(0, 2 * T);
    auto micro_batched_a2a =
        [&](const ShardedValue& value) -> StatusOr<ShardedValue> {
        if (M <= 1) return spmd.AllToAllDim(value, 0, kY);
        auto chunks = SplitDim0(spmd, value, M);
        if (!chunks.ok()) return chunks.status();
        std::vector<ShardedValue> outs;
        outs.reserve(chunks->size());
        for (const ShardedValue& chunk : *chunks) {
            auto moved = spmd.AllToAllDim(chunk, 0, kY);
            if (!moved.ok()) return moved.status();
            outs.push_back(*moved);
        }
        return ConcatDim0(spmd, outs);
    };
    auto d_gathered = spmd.AllGatherDim(d_doubled, 1);
    if (!d_gathered.ok()) return d_gathered.status();
    // The combine-grad exchange is rematerialized per consumer (and the
    // dispatch exchange re-run for the weight gradient) so each
    // AllToAll stays single-use and can fuse into its consumer's ring
    // loop — the activation-rematerialization idiom.
    auto d_comb = micro_batched_a2a(*d_gathered);
    if (!d_comb.ok()) return d_comb.status();
    auto d_comb2 = micro_batched_a2a(*d_gathered);
    if (!d_comb2.ok()) return d_comb2.status();
    auto d_h1 = spmd.Einsum(*d_comb, *w2, "td,hd->th", act_sh);
    if (!d_h1.ok()) return d_h1.status();
    auto d_w2 = spmd.Einsum(h1g, *d_comb2, "th,td->hd",
                            TensorSharding::OnDim(2, 0, kX));
    if (!d_w2.ok()) return d_w2.status();
    auto d_h1g = spmd.AllGatherDim(*d_h1, 1);
    if (!d_h1g.ok()) return d_h1g.status();
    auto d_tokens = spmd.Einsum(*d_h1g, *w1, "th,dh->td", act_sh);
    if (!d_tokens.ok()) return d_tokens.status();
    auto disp2 = micro_batched_a2a(*gathered);
    if (!disp2.ok()) return disp2.status();
    auto d_w1 = spmd.Einsum(*disp2, *d_h1, "td,th->dh",
                            TensorSharding::OnDim(2, 1, kX));
    if (!d_w1.ok()) return d_w1.status();
    auto d_dispatch = micro_batched_a2a(*d_tokens);
    if (!d_dispatch.ok()) return d_dispatch.status();
    roots->push_back(d_w2->local);
    roots->push_back(d_w1->local);
    roots->push_back(d_dispatch->local);
    return Status::Ok();
}

/**
 * Speech model layer: 1-D Figure 2 strategy along y (weights gathered on
 * demand), data parallelism along x. The weight gradients contract both
 * sharded token dims, yielding the backward ReduceScatters plus the
 * (non-overlappable) cross-replica gradient reduction.
 */
Status
BuildSpeechLayer(SpmdBuilder& spmd, const ModelConfig& config,
                 std::vector<HloInstruction*>* roots)
{
    const int64_t B = config.batch_size;
    const int64_t S = config.seq_len;
    const int64_t D = config.model_dim;
    const int64_t H = config.ff_dim;
    const TensorSharding act_sh = TensorSharding::OnDims(3, 0, kX, 1, kY);
    const TensorSharding w1_sh = TensorSharding::OnDim(2, 1, kY);
    const TensorSharding w2_sh = TensorSharding::OnDim(2, 0, kY);
    // Gradients keep the weights' sharding: the token contraction over
    // the data-parallel x axis therefore resolves to a (blocking)
    // cross-replica AllReduce — the classic DP gradient sync this
    // technique cannot overlap (§6.1).
    const TensorSharding dw1_sh = w1_sh;
    const TensorSharding dw2_sh = w2_sh;

    int64_t p = 0;
    auto act = spmd.Parameter(p++, BF16({B, S, D}), act_sh, "frames");
    auto w1 = spmd.Parameter(p++, BF16({D, H}), w1_sh, "w1");
    auto w2 = spmd.Parameter(p++, BF16({H, D}), w2_sh, "w2");
    auto d_out = spmd.Parameter(p++, BF16({B, S, D}), act_sh, "d_out");
    if (!act.ok()) return act.status();
    if (!w1.ok()) return w1.status();
    if (!w2.ok()) return w2.status();
    if (!d_out.ok()) return d_out.status();

    // Conformer block modeled as two macaron FFN pairs: weights are
    // AllGathered along y before each einsum (Figure 2).
    ShardedValue x = *act;
    for (int round = 0; round < 2; ++round) {
        auto h = spmd.Einsum(x, *w1, "bsd,dh->bsh", act_sh);
        if (!h.ok()) return h.status();
        ShardedValue h_act = *h;
        h_act.local = spmd.hlo().Multiply(h->local, h->local);
        auto y = spmd.Einsum(h_act, *w2, "bsh,hd->bsd", act_sh);
        if (!y.ok()) return y.status();
        auto residual = spmd.Add(*y, x);
        if (!residual.ok()) return residual.status();
        x = *residual;

        // Backward of this pair.
        auto d_h = spmd.Einsum(*d_out, *w2, "bsd,hd->bsh", act_sh);
        if (!d_h.ok()) return d_h.status();
        auto d_w2 = spmd.Einsum(h_act, *d_out, "bsh,bsd->hd", dw2_sh);
        if (!d_w2.ok()) return d_w2.status();
        auto d_x = spmd.Einsum(*d_h, *w1, "bsh,dh->bsd", act_sh);
        if (!d_x.ok()) return d_x.status();
        auto d_w1 = spmd.Einsum(x, *d_h, "bsd,bsh->dh", dw1_sh);
        if (!d_w1.ok()) return d_w1.status();
        roots->push_back(d_w2->local);
        roots->push_back(d_w1->local);
        roots->push_back(d_x->local);
    }
    roots->push_back(x.local);
    return Status::Ok();
}

}  // namespace

StatusOr<std::unique_ptr<HloModule>>
BuildLayerStepModule(const ModelConfig& config)
{
    if (config.mesh_x * config.mesh_y != config.num_chips) {
        return InvalidArgument(
            StrCat(config.name, ": mesh ", config.mesh_x, "x",
                   config.mesh_y, " != ", config.num_chips, " chips"));
    }
    if (config.batch_size % config.mesh_y != 0 &&
        config.kind != ModelKind::kSpeech) {
        return InvalidArgument(config.name +
                               ": batch not divisible by mesh y");
    }
    auto module = std::make_unique<HloModule>(config.name + "_layer_step");
    Mesh mesh = config.mesh();
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("layer_step");
    SpmdBuilder spmd(comp, mesh);
    std::vector<HloInstruction*> roots;

    switch (config.kind) {
      case ModelKind::kDense: {
          DenseLayerBuilder layer(&spmd, config);
          OVERLAP_RETURN_IF_ERROR(layer.Build(&roots));
          break;
      }
      case ModelKind::kEncoderDecoder: {
          DenseLayerBuilder layer(&spmd, config);
          OVERLAP_RETURN_IF_ERROR(layer.Build(&roots));
          // The T5 partitioning generates AllToAlls in backward (§6.1,
          // ~10% of runtime) that this technique cannot overlap.
          const int64_t T = config.global_tokens();
          const int64_t D = config.model_dim;
          auto grads = spmd.Parameter(
              6, BF16({T, D}), TensorSharding::OnDims(2, 0, kY, 1, kX),
              "bwd_exchange");
          if (!grads.ok()) return grads.status();
          auto moved = spmd.AllToAllDim(*grads, 0, kY);
          if (!moved.ok()) return moved.status();
          auto moved_back = spmd.AllToAllDim(*moved, 0, kY);
          if (!moved_back.ok()) return moved_back.status();
          roots.push_back(moved_back->local);
          break;
      }
      case ModelKind::kMoe: {
          DenseLayerBuilder layer(&spmd, config);
          OVERLAP_RETURN_IF_ERROR(layer.Build(&roots));
          int64_t p = 6;  // after the dense layer's parameters
          OVERLAP_RETURN_IF_ERROR(BuildMoeFfn(spmd, config, &p, &roots));
          break;
      }
      case ModelKind::kSpeech: {
          OVERLAP_RETURN_IF_ERROR(BuildSpeechLayer(spmd, config, &roots));
          break;
      }
    }
    comp->set_root(spmd.hlo().Tuple(roots));
    return module;
}

StatusOr<std::unique_ptr<HloModule>>
BuildInferenceTowerModule(const Mesh& mesh, const InferenceTowerSpec& spec)
{
    if (spec.num_layers < 1 || spec.batch < 1 || spec.hidden < 1) {
        return InvalidArgument("inference tower dimensions must be >= 1");
    }
    const int64_t ring = mesh.axis_size(0);
    if (ring < 2) {
        return InvalidArgument(
            "inference tower needs >= 2-way sharding on mesh axis 0");
    }
    if (spec.hidden % ring != 0) {
        return InvalidArgument(
            StrCat("inference tower hidden dim ", spec.hidden,
                   " is not divisible by the ", ring, "-way ring"));
    }
    auto module = std::make_unique<HloModule>("inference_tower");
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* x = b.Parameter(0, BF16({spec.batch, spec.hidden}), "features");
    HloInstruction* act = x;
    const ReplicaGroups ring_groups = mesh.Groups(0);
    for (int64_t layer = 0; layer < spec.num_layers; ++layer) {
        auto* w_shard = b.Parameter(
            1 + layer, BF16({spec.hidden, spec.hidden / ring}));
        auto* w = b.AllGather(w_shard, 1, ring_groups);
        act = b.Einsum(act, w, "bf,fh->bh");
    }
    comp->set_root(act);
    return module;
}

}  // namespace overlap
