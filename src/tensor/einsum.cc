#include "tensor/einsum.h"

#include <algorithm>
#include <map>

#include "support/strings.h"

// No-aliasing annotation for the einsum kernels: the lhs/rhs/out
// buffers are always distinct allocations (Tensor never shares
// buffers), and telling the compiler so is what lets it keep the saxpy
// accumulator run in vector registers.
#if defined(__GNUC__) || defined(__clang__)
#define OVERLAP_RESTRICT __restrict__
#else
#define OVERLAP_RESTRICT
#endif

// Runtime ISA dispatch for the vectorized kernel: the build targets
// baseline x86-64 (SSE2), so without clones the saxpy loop caps at 4
// lanes. target_clones emits an AVX2 copy picked by ifunc at load time.
// AVX2 alone (deliberately *not* fma) keeps mul and add as separate
// rounding steps, and einsum.cc is compiled with -ffp-contract=off, so
// every clone — and every host — produces bitwise identical floats.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(OVERLAP_SANITIZE) && !defined(__SANITIZE_THREAD__)
#define OVERLAP_TARGET_CLONES \
    __attribute__((target_clones("default", "avx2")))
#else
#define OVERLAP_TARGET_CLONES
#endif

namespace overlap {
namespace {

bool
HasDuplicates(const std::string& labels)
{
    std::string sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

}  // namespace

const char*
EinsumDimKindName(EinsumDimKind kind)
{
    switch (kind) {
      case EinsumDimKind::kBatch: return "batch";
      case EinsumDimKind::kContracting: return "contracting";
      case EinsumDimKind::kLhsFree: return "lhs_free";
      case EinsumDimKind::kRhsFree: return "rhs_free";
    }
    return "?";
}

StatusOr<EinsumSpec>
EinsumSpec::Parse(const std::string& spec)
{
    auto arrow = spec.find("->");
    if (arrow == std::string::npos) {
        return InvalidArgument("einsum spec missing '->': " + spec);
    }
    std::string inputs = spec.substr(0, arrow);
    std::string out = spec.substr(arrow + 2);
    auto comma = inputs.find(',');
    if (comma == std::string::npos) {
        return InvalidArgument("einsum spec needs two operands: " + spec);
    }
    EinsumSpec result;
    result.lhs_ = inputs.substr(0, comma);
    result.rhs_ = inputs.substr(comma + 1);
    result.out_ = out;
    if (result.lhs_.empty() || result.rhs_.empty()) {
        return InvalidArgument("einsum operands must be non-empty: " + spec);
    }
    if (HasDuplicates(result.lhs_) || HasDuplicates(result.rhs_) ||
        HasDuplicates(result.out_)) {
        return InvalidArgument("repeated label within one operand: " + spec);
    }
    for (char c : result.out_) {
        if (result.lhs_.find(c) == std::string::npos &&
            result.rhs_.find(c) == std::string::npos) {
            return InvalidArgument(
                StrCat("output label '", c, "' not in any input: ", spec));
        }
    }
    result.all_ = result.lhs_;
    for (char c : result.rhs_) {
        if (result.all_.find(c) == std::string::npos) result.all_ += c;
    }
    for (char c : result.all_) {
        bool in_lhs = result.lhs_.find(c) != std::string::npos;
        bool in_rhs = result.rhs_.find(c) != std::string::npos;
        bool in_out = result.out_.find(c) != std::string::npos;
        if (!in_out && !(in_lhs && in_rhs)) {
            return InvalidArgument(
                StrCat("label '", c,
                       "' appears in one input only and not in the output "
                       "(diagonal/reduction labels unsupported): ",
                       spec));
        }
    }
    return result;
}

std::string
EinsumSpec::ToString() const
{
    return StrCat(lhs_, ",", rhs_, "->", out_);
}

EinsumDimKind
EinsumSpec::KindOf(char label) const
{
    bool in_lhs = lhs_.find(label) != std::string::npos;
    bool in_rhs = rhs_.find(label) != std::string::npos;
    bool in_out = out_.find(label) != std::string::npos;
    OVERLAP_CHECK(in_lhs || in_rhs);
    if (in_lhs && in_rhs) {
        return in_out ? EinsumDimKind::kBatch : EinsumDimKind::kContracting;
    }
    return in_lhs ? EinsumDimKind::kLhsFree : EinsumDimKind::kRhsFree;
}

int64_t
EinsumSpec::LhsDimOf(char label) const
{
    auto pos = lhs_.find(label);
    return pos == std::string::npos ? -1 : static_cast<int64_t>(pos);
}

int64_t
EinsumSpec::RhsDimOf(char label) const
{
    auto pos = rhs_.find(label);
    return pos == std::string::npos ? -1 : static_cast<int64_t>(pos);
}

int64_t
EinsumSpec::OutDimOf(char label) const
{
    auto pos = out_.find(label);
    return pos == std::string::npos ? -1 : static_cast<int64_t>(pos);
}

StatusOr<Shape>
EinsumSpec::InferOutputShape(const Shape& lhs, const Shape& rhs) const
{
    if (lhs.rank() != static_cast<int64_t>(lhs_.size())) {
        return InvalidArgument(StrCat("lhs rank ", lhs.rank(),
                                      " != spec rank ", lhs_.size(), " for ",
                                      ToString()));
    }
    if (rhs.rank() != static_cast<int64_t>(rhs_.size())) {
        return InvalidArgument(StrCat("rhs rank ", rhs.rank(),
                                      " != spec rank ", rhs_.size(), " for ",
                                      ToString()));
    }
    // Parse rejects a label repeated within one operand, so each label
    // has at most one dim per side.
    for (size_t i = 0; i < rhs_.size(); ++i) {
        const char c = rhs_[i];
        const int64_t size = rhs.dim(static_cast<int64_t>(i));
        const int64_t lp = LhsDimOf(c);
        if (lp >= 0 && lhs.dim(lp) != size) {
            return InvalidArgument(
                StrCat("label '", c, "' size mismatch: ", lhs.dim(lp),
                       " vs ", size, " for ", ToString()));
        }
    }
    Shape out = Shape::OfRank(lhs.dtype(), static_cast<int64_t>(out_.size()));
    for (size_t i = 0; i < out_.size(); ++i) {
        const char c = out_[i];
        const int64_t lp = LhsDimOf(c);
        out.set_dim(static_cast<int64_t>(i),
                    lp >= 0 ? lhs.dim(lp) : rhs.dim(RhsDimOf(c)));
    }
    return out;
}

int64_t
EinsumSpec::FlopCount(const Shape& lhs, const Shape& rhs) const
{
    // A label on both sides takes its rhs size.
    int64_t total = 1;
    for (char c : all_) {
        const int64_t rp = RhsDimOf(c);
        total *= rp >= 0 ? rhs.dim(rp) : lhs.dim(LhsDimOf(c));
    }
    return 2 * total;
}

namespace {

/** Row-major strides of `dims`. */
std::vector<int64_t>
RowMajorStrides(std::span<const int64_t> dims)
{
    std::vector<int64_t> strides(dims.size(), 1);
    for (int64_t d = static_cast<int64_t>(dims.size()) - 2; d >= 0; --d) {
        strides[static_cast<size_t>(d)] =
            strides[static_cast<size_t>(d) + 1] *
            dims[static_cast<size_t>(d) + 1];
    }
    return strides;
}

/**
 * Flat-offset table for one label class: entry i is the (lhs, rhs, out)
 * offset triple of the i-th combination of the class's labels, iterated
 * row-major in the order the labels appear in `labels`. Labels absent
 * from an operand contribute 0 to that operand's offset.
 */
struct OffsetTable {
    std::vector<int64_t> lhs;
    std::vector<int64_t> rhs;
    std::vector<int64_t> out;
    int64_t count = 1;
};

/**
 * The per-evaluation plan both kernels share: the output shape and the
 * four label-class offset tables, plus the contiguous-run length the
 * vectorized kernel keys on. Labels keep the deterministic all_-labels
 * order within each class, which fixes the floating-point accumulation
 * order independent of blocking or vectorization.
 */
struct EinsumPlan {
    Shape out_shape;
    OffsetTable batch;
    OffsetTable mfree;
    OffsetTable nfree;
    OffsetTable contract;
    /// Length of a contiguous rhs-free run: the extent of the innermost
    /// rhs-free label when it has stride 1 in both the rhs and the
    /// output, else 1 (scalar fallback).
    int64_t n_run = 1;
};

/**
 * Builds the offset tables for one evaluation. Partitions the label
 * space into the four classes of the paper's einsum taxonomy: every
 * output element is indexed by exactly (batch, lhs-free, rhs-free),
 * and its value is a sum over the contracting space — so the kernels
 * write each output once and need no zero-initialized accumulator
 * tensor.
 */
StatusOr<EinsumPlan>
BuildPlan(const EinsumSpec& spec, const Shape& lhs, const Shape& rhs)
{
    auto out_shape = spec.InferOutputShape(lhs, rhs);
    if (!out_shape.ok()) return out_shape.status();

    EinsumPlan plan;
    plan.out_shape = std::move(out_shape).value();

    std::map<char, int64_t> sizes;
    const std::string& lhs_labels = spec.lhs_labels();
    const std::string& rhs_labels = spec.rhs_labels();
    for (size_t i = 0; i < lhs_labels.size(); ++i) {
        sizes[lhs_labels[i]] = lhs.dim(static_cast<int64_t>(i));
    }
    for (size_t i = 0; i < rhs_labels.size(); ++i) {
        sizes[rhs_labels[i]] = rhs.dim(static_cast<int64_t>(i));
    }

    std::vector<int64_t> lhs_strides = RowMajorStrides(lhs.dims());
    std::vector<int64_t> rhs_strides = RowMajorStrides(rhs.dims());
    std::vector<int64_t> out_strides =
        RowMajorStrides(plan.out_shape.dims());

    auto build_table = [&](EinsumDimKind kind) {
        OffsetTable table;
        std::vector<char> labels;
        std::vector<int64_t> extents;
        for (char c : spec.all_labels()) {
            if (spec.KindOf(c) != kind) continue;
            labels.push_back(c);
            extents.push_back(sizes.at(c));
            table.count *= sizes.at(c);
        }
        table.lhs.reserve(static_cast<size_t>(table.count));
        table.rhs.reserve(static_cast<size_t>(table.count));
        table.out.reserve(static_cast<size_t>(table.count));
        std::vector<int64_t> idx(labels.size(), 0);
        for (int64_t i = 0; i < table.count; ++i) {
            int64_t l = 0, r = 0, o = 0;
            for (size_t d = 0; d < labels.size(); ++d) {
                char c = labels[d];
                int64_t lp = spec.LhsDimOf(c);
                int64_t rp = spec.RhsDimOf(c);
                int64_t op = spec.OutDimOf(c);
                if (lp >= 0) l += idx[d] * lhs_strides[static_cast<size_t>(lp)];
                if (rp >= 0) r += idx[d] * rhs_strides[static_cast<size_t>(rp)];
                if (op >= 0) o += idx[d] * out_strides[static_cast<size_t>(op)];
            }
            table.lhs.push_back(l);
            table.rhs.push_back(r);
            table.out.push_back(o);
            for (int64_t d = static_cast<int64_t>(labels.size()) - 1;
                 d >= 0; --d) {
                if (++idx[static_cast<size_t>(d)] <
                    extents[static_cast<size_t>(d)]) {
                    break;
                }
                idx[static_cast<size_t>(d)] = 0;
            }
        }
        return table;
    };
    plan.batch = build_table(EinsumDimKind::kBatch);
    plan.mfree = build_table(EinsumDimKind::kLhsFree);
    plan.nfree = build_table(EinsumDimKind::kRhsFree);
    plan.contract = build_table(EinsumDimKind::kContracting);

    // The vectorized kernel needs the innermost rhs-free label to be
    // unit-stride in both the rhs and the output, so that consecutive
    // n entries are contiguous saxpy lanes. Every matmul-like spec the
    // decomposition emits ("bf,fh->bh" and friends) qualifies.
    char inner = 0;
    for (char c : spec.all_labels()) {
        if (spec.KindOf(c) == EinsumDimKind::kRhsFree) inner = c;
    }
    if (inner != 0) {
        const int64_t rp = spec.RhsDimOf(inner);
        const int64_t op = spec.OutDimOf(inner);
        if (rhs_strides[static_cast<size_t>(rp)] == 1 &&
            out_strides[static_cast<size_t>(op)] == 1) {
            plan.n_run = sizes.at(inner);
        }
    }
    return plan;
}

/**
 * The scalar cache-blocked kernel (the seed evaluator's loop, kept
 * verbatim): one k-panel of the rhs is reused across every n in the
 * block before the walk moves on, instead of streaming the whole rhs
 * per output row. Blocks split the k loop sequentially, so per-element
 * accumulation order (and thus the float result) is unchanged.
 */
void
ScalarKernel(const EinsumPlan& plan, const float* lhs_data,
             const float* rhs_data, float* out_data)
{
    const OffsetTable& batch = plan.batch;
    const OffsetTable& mfree = plan.mfree;
    const OffsetTable& nfree = plan.nfree;
    const OffsetTable& contract = plan.contract;
    constexpr int64_t kBlockK = 64;
    constexpr int64_t kBlockN = 64;
    for (int64_t b = 0; b < batch.count; ++b) {
        const int64_t lb = batch.lhs[static_cast<size_t>(b)];
        const int64_t rb = batch.rhs[static_cast<size_t>(b)];
        const int64_t ob = batch.out[static_cast<size_t>(b)];
        for (int64_t k0 = 0; k0 < contract.count; k0 += kBlockK) {
            const int64_t k1 = std::min(k0 + kBlockK, contract.count);
            const bool first_panel = k0 == 0;
            for (int64_t m = 0; m < mfree.count; ++m) {
                const int64_t lm =
                    lb + mfree.lhs[static_cast<size_t>(m)];
                const int64_t om =
                    ob + mfree.out[static_cast<size_t>(m)];
                for (int64_t n0 = 0; n0 < nfree.count; n0 += kBlockN) {
                    const int64_t n1 =
                        std::min(n0 + kBlockN, nfree.count);
                    for (int64_t n = n0; n < n1; ++n) {
                        const int64_t rn =
                            rb + nfree.rhs[static_cast<size_t>(n)];
                        const int64_t on =
                            om + nfree.out[static_cast<size_t>(n)];
                        float acc =
                            first_panel
                                ? 0.0f
                                : out_data[static_cast<size_t>(on)];
                        for (int64_t k = k0; k < k1; ++k) {
                            acc += lhs_data[static_cast<size_t>(
                                       lm +
                                       contract.lhs[static_cast<size_t>(
                                           k)])] *
                                   rhs_data[static_cast<size_t>(
                                       rn +
                                       contract.rhs[static_cast<size_t>(
                                           k)])];
                        }
                        out_data[static_cast<size_t>(on)] = acc;
                    }
                }
            }
        }
    }
}

/**
 * The vectorized kernel: same (batch, k-panel, m) walk as ScalarKernel,
 * but inside a tile the loop order is k outer / n inner, so the
 * innermost loop is a contiguous saxpy over one rhs-free run
 * (out[v] += a * rhs[v]) that the compiler turns into SIMD.
 *
 * Two blocking layers sit on top of the saxpy form, and neither
 * changes a single bit of the result, because every output element
 * still accumulates its contracting terms in ascending k order —
 * blocking only regroups *independent* output elements:
 *
 *  - Register tiling: a kTileN-wide slice of the output run lives in
 *    an accumulator array (vector registers once unrolled) across the
 *    whole k panel, so partial sums never round-trip through memory.
 *  - m-blocking: kBlockM output rows advance through the k panel
 *    together, so each rhs row fetched from cache feeds kBlockM saxpy
 *    updates instead of one.
 *
 * Unaligned bases and tails shorter than the hardware vector width
 * are the compiler's problem (unaligned loads + a scalar epilogue),
 * not a correctness concern; run/m tails that don't fill a tile take
 * the plain in-memory saxpy.
 */
OVERLAP_TARGET_CLONES
void
VectorKernel(const EinsumPlan& plan,
             const float* OVERLAP_RESTRICT lhs_data,
             const float* OVERLAP_RESTRICT rhs_data,
             float* OVERLAP_RESTRICT out_data)
{
    const OffsetTable& batch = plan.batch;
    const OffsetTable& mfree = plan.mfree;
    const OffsetTable& nfree = plan.nfree;
    const OffsetTable& contract = plan.contract;
    const int64_t run = plan.n_run;
    constexpr int64_t kBlockK = 64;
    constexpr int64_t kBlockM = 4;
    constexpr int64_t kTileN = 16;
    for (int64_t b = 0; b < batch.count; ++b) {
        const int64_t lb = batch.lhs[static_cast<size_t>(b)];
        const int64_t rb = batch.rhs[static_cast<size_t>(b)];
        const int64_t ob = batch.out[static_cast<size_t>(b)];
        for (int64_t k0 = 0; k0 < contract.count; k0 += kBlockK) {
            const int64_t k1 = std::min(k0 + kBlockK, contract.count);
            const bool first_panel = k0 == 0;
            int64_t m = 0;
            for (; m + kBlockM <= mfree.count; m += kBlockM) {
                int64_t lm[kBlockM];
                int64_t om[kBlockM];
                for (int64_t i = 0; i < kBlockM; ++i) {
                    lm[i] = lb +
                            mfree.lhs[static_cast<size_t>(m + i)];
                    om[i] = ob +
                            mfree.out[static_cast<size_t>(m + i)];
                }
                // Whole runs only: n_run is the innermost rhs-free
                // label's extent, so it divides nfree.count.
                for (int64_t n0 = 0; n0 < nfree.count; n0 += run) {
                    const int64_t rn =
                        rb + nfree.rhs[static_cast<size_t>(n0)];
                    const int64_t on =
                        nfree.out[static_cast<size_t>(n0)];
                    if (first_panel) {
                        for (int64_t i = 0; i < kBlockM; ++i) {
                            float* OVERLAP_RESTRICT o =
                                out_data +
                                static_cast<size_t>(om[i] + on);
                            for (int64_t v = 0; v < run; ++v) {
                                o[v] = 0.0f;
                            }
                        }
                    }
                    int64_t t = 0;
                    for (; t + kTileN <= run; t += kTileN) {
                        float acc[kBlockM][kTileN];
                        for (int64_t i = 0; i < kBlockM; ++i) {
                            const float* o =
                                out_data +
                                static_cast<size_t>(om[i] + on + t);
                            for (int64_t v = 0; v < kTileN; ++v) {
                                acc[i][v] = o[v];
                            }
                        }
                        for (int64_t k = k0; k < k1; ++k) {
                            const int64_t cl =
                                contract.lhs[static_cast<size_t>(k)];
                            const float* OVERLAP_RESTRICT r =
                                rhs_data +
                                static_cast<size_t>(
                                    rn +
                                    contract
                                        .rhs[static_cast<size_t>(k)] +
                                    t);
                            for (int64_t i = 0; i < kBlockM; ++i) {
                                const float a =
                                    lhs_data[static_cast<size_t>(
                                        lm[i] + cl)];
                                for (int64_t v = 0; v < kTileN; ++v) {
                                    acc[i][v] += a * r[v];
                                }
                            }
                        }
                        for (int64_t i = 0; i < kBlockM; ++i) {
                            float* o =
                                out_data +
                                static_cast<size_t>(om[i] + on + t);
                            for (int64_t v = 0; v < kTileN; ++v) {
                                o[v] = acc[i][v];
                            }
                        }
                    }
                    // Tail lanes (run not a multiple of kTileN) take
                    // the plain in-memory saxpy.
                    if (t < run) {
                        for (int64_t k = k0; k < k1; ++k) {
                            const int64_t cl =
                                contract.lhs[static_cast<size_t>(k)];
                            const float* OVERLAP_RESTRICT r =
                                rhs_data +
                                static_cast<size_t>(
                                    rn +
                                    contract
                                        .rhs[static_cast<size_t>(k)]);
                            for (int64_t i = 0; i < kBlockM; ++i) {
                                const float a =
                                    lhs_data[static_cast<size_t>(
                                        lm[i] + cl)];
                                float* OVERLAP_RESTRICT o =
                                    out_data +
                                    static_cast<size_t>(om[i] + on);
                                for (int64_t v = t; v < run; ++v) {
                                    o[v] += a * r[v];
                                }
                            }
                        }
                    }
                }
            }
            // Leftover output rows (mfree.count not a multiple of
            // kBlockM): single-row register-tiled walk.
            for (; m < mfree.count; ++m) {
                const int64_t lm =
                    lb + mfree.lhs[static_cast<size_t>(m)];
                const int64_t om =
                    ob + mfree.out[static_cast<size_t>(m)];
                for (int64_t n0 = 0; n0 < nfree.count; n0 += run) {
                    const int64_t rn =
                        rb + nfree.rhs[static_cast<size_t>(n0)];
                    const int64_t on =
                        om + nfree.out[static_cast<size_t>(n0)];
                    float* OVERLAP_RESTRICT o =
                        out_data + static_cast<size_t>(on);
                    if (first_panel) {
                        for (int64_t v = 0; v < run; ++v) o[v] = 0.0f;
                    }
                    int64_t t = 0;
                    for (; t + kTileN <= run; t += kTileN) {
                        float acc[kTileN];
                        for (int64_t v = 0; v < kTileN; ++v) {
                            acc[v] = o[t + v];
                        }
                        for (int64_t k = k0; k < k1; ++k) {
                            const float a =
                                lhs_data[static_cast<size_t>(
                                    lm +
                                    contract
                                        .lhs[static_cast<size_t>(k)])];
                            const float* OVERLAP_RESTRICT r =
                                rhs_data +
                                static_cast<size_t>(
                                    rn +
                                    contract
                                        .rhs[static_cast<size_t>(k)]) +
                                t;
                            for (int64_t v = 0; v < kTileN; ++v) {
                                acc[v] += a * r[v];
                            }
                        }
                        for (int64_t v = 0; v < kTileN; ++v) {
                            o[t + v] = acc[v];
                        }
                    }
                    if (t < run) {
                        for (int64_t k = k0; k < k1; ++k) {
                            const float a =
                                lhs_data[static_cast<size_t>(
                                    lm +
                                    contract
                                        .lhs[static_cast<size_t>(k)])];
                            const float* OVERLAP_RESTRICT r =
                                rhs_data +
                                static_cast<size_t>(
                                    rn +
                                    contract
                                        .rhs[static_cast<size_t>(k)]);
                            for (int64_t v = t; v < run; ++v) {
                                o[v] += a * r[v];
                            }
                        }
                    }
                }
            }
        }
    }
}

}  // namespace

StatusOr<Tensor>
EinsumSpec::Evaluate(const Tensor& lhs, const Tensor& rhs) const
{
    auto plan = BuildPlan(*this, lhs.shape(), rhs.shape());
    if (!plan.ok()) return plan.status();

    Tensor out = Tensor::Uninitialized(plan->out_shape);
    if (out.num_elements() == 0) return out;
    if (plan->contract.count == 0) {
        // An extent-0 contracting dim: every output element is the sum
        // of an empty set, i.e. zero (the k loops would never write
        // the output at all).
        std::fill(out.values().begin(), out.values().end(), 0.0f);
        return out;
    }
    // Runs of length 1 (a transposed or absent rhs-free inner dim) gain
    // nothing from the saxpy form; both kernels are bitwise identical,
    // so dispatch is purely a performance choice.
    if (plan->n_run > 1) {
        VectorKernel(*plan, lhs.data(), rhs.data(), out.data());
    } else {
        ScalarKernel(*plan, lhs.data(), rhs.data(), out.data());
    }
    return out;
}

StatusOr<Tensor>
EinsumSpec::EvaluateReference(const Tensor& lhs, const Tensor& rhs) const
{
    auto plan = BuildPlan(*this, lhs.shape(), rhs.shape());
    if (!plan.ok()) return plan.status();
    Tensor out = Tensor::Uninitialized(plan->out_shape);
    if (out.num_elements() == 0) return out;
    if (plan->contract.count == 0) {
        std::fill(out.values().begin(), out.values().end(), 0.0f);
        return out;
    }
    ScalarKernel(*plan, lhs.data(), rhs.data(), out.data());
    return out;
}

std::string
EinsumSpec::SwappedSpec() const
{
    return StrCat(rhs_, ",", lhs_, "->", out_);
}

}  // namespace overlap
