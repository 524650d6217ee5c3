#include "tensor/checksum.h"

#include <cmath>
#include <cstring>
#include <sstream>

namespace overlap {

const char* CorruptionTargetName(CorruptionTarget target)
{
    switch (target) {
        case CorruptionTarget::kEinsumOutput:
            return "einsum_output";
        case CorruptionTarget::kTransferPayload:
            return "transfer_payload";
    }
    return "unknown";
}

const char* CorruptionKindName(CorruptionKind kind)
{
    switch (kind) {
        case CorruptionKind::kBitFlip:
            return "bit_flip";
        case CorruptionKind::kValuePerturbation:
            return "value_perturbation";
    }
    return "unknown";
}

const char* CorruptionDetectorName(CorruptionDetector detector)
{
    switch (detector) {
        case CorruptionDetector::kNone:
            return "none";
        case CorruptionDetector::kTransferChecksum:
            return "transfer_checksum";
        case CorruptionDetector::kEinsumAbft:
            return "einsum_abft";
        case CorruptionDetector::kCheckpointChecksum:
            return "checkpoint_checksum";
    }
    return "unknown";
}

std::string SilentCorruption::ToString() const
{
    std::ostringstream out;
    out << "SilentCorruption{step=" << step << " chip=" << chip
        << " instruction=" << instruction << " target="
        << CorruptionTargetName(target) << " kind=" << CorruptionKindName(kind)
        << " element=" << element;
    if (kind == CorruptionKind::kBitFlip) {
        out << " bit=" << bit;
    } else {
        out << " magnitude=" << magnitude;
    }
    out << "}";
    return out.str();
}

std::string CorruptionReport::ToString() const
{
    std::ostringstream out;
    out << "CorruptionReport{step=" << step << " chip=" << chip
        << " instruction=" << instruction << " detector="
        << CorruptionDetectorName(detector) << " injected_step="
        << injected_step;
    if (detector == CorruptionDetector::kEinsumAbft) {
        out << " residual=" << residual;
    }
    out << "}";
    return out.str();
}

bool AbftChecked(int64_t step, int64_t einsum_ordinal,
                 int64_t einsums_per_step, int64_t cadence)
{
    if (cadence <= 1) return true;
    int64_t global = step * einsums_per_step + einsum_ordinal;
    return global % cadence == 0;
}

uint64_t PayloadChecksum(const float* data, int64_t count)
{
    uint64_t hash = 14695981039346656037ull;
    for (int64_t i = 0; i < count; ++i) {
        uint32_t bits = 0;
        std::memcpy(&bits, &data[i], sizeof(bits));
        for (int byte = 0; byte < 4; ++byte) {
            hash ^= (bits >> (8 * byte)) & 0xffu;
            hash *= 1099511628211ull;
        }
    }
    return hash;
}

uint64_t BytesChecksum(const uint8_t* data, size_t count)
{
    uint64_t hash = 14695981039346656037ull;
    for (size_t i = 0; i < count; ++i) {
        hash ^= data[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

uint64_t PayloadChecksum(const Tensor& t)
{
    return PayloadChecksum(t.data(), t.num_elements());
}

void ApplyCorruption(const SilentCorruption& c, Tensor* t)
{
    int64_t n = t->num_elements();
    if (n == 0) return;
    int64_t index = c.element % n;
    if (index < 0) index += n;
    float* value = t->data() + index;
    if (c.kind == CorruptionKind::kBitFlip) {
        uint32_t bits = 0;
        std::memcpy(&bits, value, sizeof(bits));
        bits ^= 1u << (c.bit & 31);
        std::memcpy(value, &bits, sizeof(bits));
    } else {
        *value = static_cast<float>(*value + c.magnitude);
    }
}

namespace {

/**
 * Sums `t` over the dims whose label is in `drop` (labels[i] names dim i),
 * accumulating in double. `absolute` sums |v| instead of v (used to bound
 * the magnitude of the terms entering the checksum equation).
 */
struct ReducedSum {
    Shape shape;
    std::vector<double> values;

    Tensor ToTensor() const
    {
        Tensor result(shape);
        for (size_t i = 0; i < values.size(); ++i) {
            result.values()[i] = static_cast<float>(values[i]);
        }
        return result;
    }
};

ReducedSum SumOverLabels(const Tensor& t, const std::string& labels,
                         const std::string& drop, bool absolute)
{
    const std::span<const int64_t> dims = t.shape().dims();
    std::vector<int64_t> kept_dims;
    for (size_t d = 0; d < labels.size(); ++d) {
        if (drop.find(labels[d]) == std::string::npos) {
            kept_dims.push_back(dims[d]);
        }
    }
    ReducedSum reduced;
    reduced.shape = Shape(t.shape().dtype(), kept_dims);
    reduced.values.assign(
        static_cast<size_t>(reduced.shape.num_elements()), 0.0);

    // Row-major strides of the kept dims, laid out at each input dim.
    std::vector<int64_t> out_stride(labels.size(), 0);
    int64_t stride = 1;
    for (int64_t d = static_cast<int64_t>(labels.size()) - 1; d >= 0; --d) {
        if (drop.find(labels[d]) == std::string::npos) {
            out_stride[d] = stride;
            stride *= dims[d];
        }
    }

    const float* data = t.data();
    int64_t n = t.num_elements();
    std::vector<int64_t> index(labels.size(), 0);
    int64_t out_flat = 0;
    for (int64_t i = 0; i < n; ++i) {
        double v = data[i];
        reduced.values[static_cast<size_t>(out_flat)] +=
            absolute ? std::fabs(v) : v;
        // Odometer increment, keeping out_flat in sync.
        for (int64_t d = static_cast<int64_t>(labels.size()) - 1; d >= 0;
             --d) {
            ++index[d];
            out_flat += out_stride[d];
            if (index[d] < dims[d]) break;
            out_flat -= index[d] * out_stride[d];
            index[d] = 0;
        }
    }
    return reduced;
}

std::string RemoveLabels(const std::string& labels, const std::string& drop)
{
    std::string kept;
    for (char label : labels) {
        if (drop.find(label) == std::string::npos) kept.push_back(label);
    }
    return kept;
}

Status CompareReduced(const ReducedSum& actual, const Tensor& expected,
                      const Tensor& expected_abs, double relative_tolerance,
                      AbftCheckResult* result)
{
    if (static_cast<int64_t>(actual.values.size()) !=
        expected.num_elements()) {
        return Internal("ABFT reduced shapes disagree: " +
                        actual.shape.ToString() + " vs " +
                        expected.shape().ToString());
    }
    result->ok = true;
    result->max_residual = 0.0;
    result->tolerance = 0.0;
    const float* e = expected.data();
    const float* ea = expected_abs.data();
    for (size_t i = 0; i < actual.values.size(); ++i) {
        double residual = std::fabs(actual.values[i] - e[i]);
        double tolerance =
            relative_tolerance * (1.0 + static_cast<double>(ea[i]));
        result->tolerance = std::max(result->tolerance, tolerance);
        // NaN/Inf residuals (from a corrupted exponent) must fail, so
        // compare with the negated predicate.
        if (!(residual <= tolerance)) {
            result->ok = false;
        }
        if (!(residual <= result->max_residual)) {
            result->max_residual = residual;
        }
    }
    return Status::Ok();
}

}  // namespace

StatusOr<AbftCheckResult> AbftVerifyEinsum(const EinsumSpec& spec,
                                           const Tensor& lhs,
                                           const Tensor& rhs,
                                           const Tensor& out,
                                           double relative_tolerance)
{
    StatusOr<Shape> inferred = spec.InferOutputShape(lhs.shape(), rhs.shape());
    if (!inferred.ok()) return inferred.status();
    if (!inferred->SameDims(out.shape())) {
        return InvalidArgument("ABFT output shape mismatch: expected " +
                               inferred->ToString() + ", got " +
                               out.shape().ToString());
    }

    std::string lhs_free;
    std::string rhs_free;
    for (char label : spec.all_labels()) {
        switch (spec.KindOf(label)) {
            case EinsumDimKind::kLhsFree:
                lhs_free.push_back(label);
                break;
            case EinsumDimKind::kRhsFree:
                rhs_free.push_back(label);
                break;
            default:
                break;
        }
    }

    AbftCheckResult result;
    Tensor rhs_abs = rhs.Map([](float v) { return std::fabs(v); });
    if (!lhs_free.empty()) {
        // Column checksum: sum A and C over the lhs-free labels, then
        // sum_m C[b,m,n] must equal sum_k (sum_m A[b,m,k]) * B[b,k,n].
        std::string reduced_spec_str =
            RemoveLabels(spec.lhs_labels(), lhs_free) + "," +
            spec.rhs_labels() + "->" +
            RemoveLabels(spec.out_labels(), lhs_free);
        StatusOr<EinsumSpec> reduced = EinsumSpec::Parse(reduced_spec_str);
        if (!reduced.ok()) return reduced.status();
        ReducedSum lhs_sum =
            SumOverLabels(lhs, spec.lhs_labels(), lhs_free, false);
        ReducedSum lhs_abs =
            SumOverLabels(lhs, spec.lhs_labels(), lhs_free, true);
        StatusOr<Tensor> expected =
            reduced->Evaluate(lhs_sum.ToTensor(), rhs);
        if (!expected.ok()) return expected.status();
        StatusOr<Tensor> expected_abs =
            reduced->Evaluate(lhs_abs.ToTensor(), rhs_abs);
        if (!expected_abs.ok()) return expected_abs.status();
        ReducedSum out_sum =
            SumOverLabels(out, spec.out_labels(), lhs_free, false);
        OVERLAP_RETURN_IF_ERROR(CompareReduced(out_sum, *expected,
                                               *expected_abs,
                                               relative_tolerance, &result));
        return result;
    }
    Tensor lhs_abs = lhs.Map([](float v) { return std::fabs(v); });
    if (!rhs_free.empty()) {
        // Row checksum: mirror of the above, summing over rhs-free labels.
        std::string reduced_spec_str =
            spec.lhs_labels() + "," +
            RemoveLabels(spec.rhs_labels(), rhs_free) + "->" +
            RemoveLabels(spec.out_labels(), rhs_free);
        StatusOr<EinsumSpec> reduced = EinsumSpec::Parse(reduced_spec_str);
        if (!reduced.ok()) return reduced.status();
        ReducedSum rhs_sum =
            SumOverLabels(rhs, spec.rhs_labels(), rhs_free, false);
        ReducedSum rhs_abs_sum =
            SumOverLabels(rhs, spec.rhs_labels(), rhs_free, true);
        StatusOr<Tensor> expected =
            reduced->Evaluate(lhs, rhs_sum.ToTensor());
        if (!expected.ok()) return expected.status();
        StatusOr<Tensor> expected_abs =
            reduced->Evaluate(lhs_abs, rhs_abs_sum.ToTensor());
        if (!expected_abs.ok()) return expected_abs.status();
        ReducedSum out_sum =
            SumOverLabels(out, spec.out_labels(), rhs_free, false);
        OVERLAP_RETURN_IF_ERROR(CompareReduced(out_sum, *expected,
                                               *expected_abs,
                                               relative_tolerance, &result));
        return result;
    }
    // Pure batch/contraction: the output is small — recompute it.
    StatusOr<Tensor> expected = spec.Evaluate(lhs, rhs);
    if (!expected.ok()) return expected.status();
    StatusOr<Tensor> expected_abs = spec.Evaluate(lhs_abs, rhs_abs);
    if (!expected_abs.ok()) return expected_abs.status();
    ReducedSum out_sum = SumOverLabels(out, spec.out_labels(), "", false);
    OVERLAP_RETURN_IF_ERROR(CompareReduced(out_sum, *expected, *expected_abs,
                                           relative_tolerance, &result));
    return result;
}

}  // namespace overlap
