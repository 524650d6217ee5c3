#include "interp/evaluator.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "hlo/builder.h"
#include "support/strings.h"
#include "tensor/buffer_pool.h"

#if defined(__GNUC__) || defined(__clang__)
#define OVERLAP_RESTRICT __restrict__
#else
#define OVERLAP_RESTRICT
#endif

namespace overlap {

namespace {
std::atomic<bool> phase_timing_enabled{false};
std::atomic<int64_t> einsum_phase_nanos{0};
std::atomic<int64_t> collective_phase_nanos{0};

bool
PhaseTimingEnabled()
{
    return phase_timing_enabled.load(std::memory_order_relaxed);
}

/** Accumulates wall time into one phase counter when timing is on. */
class PhaseTimer {
  public:
    explicit PhaseTimer(std::atomic<int64_t>& sink)
        : sink_(sink), enabled_(PhaseTimingEnabled())
    {
        if (enabled_) start_ = std::chrono::steady_clock::now();
    }

    ~PhaseTimer()
    {
        if (!enabled_) return;
        auto nanos =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
        sink_.fetch_add(nanos, std::memory_order_relaxed);
    }

  private:
    std::atomic<int64_t>& sink_;
    bool enabled_;
    std::chrono::steady_clock::time_point start_;
};
}  // namespace

void
SetEvalPhaseTimingEnabled(bool enabled)
{
    phase_timing_enabled.store(enabled, std::memory_order_relaxed);
}

EvalPhaseSeconds
ConsumeEvalPhaseSeconds()
{
    EvalPhaseSeconds out;
    out.einsum_seconds =
        static_cast<double>(einsum_phase_nanos.exchange(
            0, std::memory_order_relaxed)) *
        1e-9;
    out.collective_seconds =
        static_cast<double>(collective_phase_nanos.exchange(
            0, std::memory_order_relaxed)) *
        1e-9;
    return out;
}

namespace {

using PerDevice = std::vector<Tensor>;

float
ApplyBinary(HloOpcode opcode, float a, float b)
{
    switch (opcode) {
      case HloOpcode::kAdd: return a + b;
      case HloOpcode::kSubtract: return a - b;
      case HloOpcode::kMultiply: return a * b;
      case HloOpcode::kDivide: return a / b;
      case HloOpcode::kMaximum: return a > b ? a : b;
      case HloOpcode::kMinimum: return a < b ? a : b;
      case HloOpcode::kRemainder: return std::fmod(a, b);
      default: break;
    }
    OVERLAP_CHECK(false);
    return 0.0f;
}

int64_t
ScalarToIndex(const Tensor& t)
{
    return static_cast<int64_t>(std::llround(t.ScalarValue()));
}

/** Gathers the dynamic start indices for a DynamicSlice/UpdateSlice. */
std::vector<int64_t>
GatherStarts(const std::vector<const Tensor*>& operands,
             size_t first_index_operand, int64_t rank)
{
    std::vector<int64_t> starts(static_cast<size_t>(rank));
    for (int64_t d = 0; d < rank; ++d) {
        starts[static_cast<size_t>(d)] = ScalarToIndex(
            *operands[first_index_operand + static_cast<size_t>(d)]);
    }
    return starts;
}

/** Elementwise opcodes the evaluator fuses into single-pass groups. */
bool
IsFusableElementwise(HloOpcode opcode)
{
    switch (opcode) {
      case HloOpcode::kAdd:
      case HloOpcode::kSubtract:
      case HloOpcode::kMultiply:
      case HloOpcode::kDivide:
      case HloOpcode::kMaximum:
      case HloOpcode::kMinimum:
      case HloOpcode::kRemainder:
      case HloOpcode::kNegate: return true;
      default: return false;
    }
}

/** How the compiled walk executes one instruction (DESIGN.md §17). */
enum class ExecKind : uint8_t {
    kParam,          ///< bind (borrow) a caller tensor, no copy
    kConstant,       ///< borrow the instruction's literal
    kCopyLike,       ///< Copy / async Done: move or alias
    kLocal,          ///< per-device op through the EvalOp switch
    kFused,          ///< leader of a fused elementwise group
    kFusedInterior,  ///< executed by its group leader; skipped in walk
    kExchange,       ///< cross-device collective
    kDeferredError,  ///< statically invalid op; fails when reached
};

/**
 * One member of a fused elementwise group. Input sources are encoded as
 * `member index` (>= 0: the output of an earlier member of the same
 * group) or `~slot` (< 0: a value slot outside the group).
 */
struct FusedMember {
    HloOpcode opcode = HloOpcode::kAdd;
    int32_t a = 0;
    int32_t b = 0;
    /// Program slot this member writes (for escapes / recycling).
    int32_t slot = 0;
    /// True when the value is read outside the group (or is the root):
    /// it materializes as a Tensor. Interior values live only in a
    /// block-sized scratch lane.
    bool escapes = false;
};

/**
 * A maximal run of program-order-consecutive elementwise instructions
 * over equal-element-count shapes, executed as ONE blockwise pass: per
 * ~512-element block every member computes in order, interior results
 * staying in scratch lanes. One dispatch, zero interior allocations.
 */
struct FusedGroup {
    std::vector<FusedMember> members;
    /// Program-index range [begin, end) the group covers.
    int64_t begin = 0;
    int64_t end = 0;
    int64_t num_elements = 0;
};

/**
 * One instruction of a compiled program: opcode class plus operand
 * value-slot indices, resolved once — the hot walk never touches a hash
 * map or re-derives shapes.
 */
struct CompiledOp {
    const HloInstruction* instr = nullptr;
    ExecKind kind = ExecKind::kLocal;
    std::vector<int32_t> operands;
    int64_t einsum_ordinal = -1;
    int64_t exchange_ordinal = -1;
    /// kFused: index into CompiledProgram::groups.
    int32_t fused_group = -1;
    /// kDeferredError: the statically detected failure, returned when
    /// program order reaches this instruction (so errors keep the exact
    /// serial-walk ordering).
    Status deferred_error = Status::Ok();
};

/**
 * The pre-resolved execution form of one computation: operand slots,
 * liveness, fused elementwise groups, and static validation results.
 */
struct CompiledProgram {
    std::vector<CompiledOp> ops;
    /// Program index of each slot's last reader (own index for dead
    /// values, "never" for the root).
    std::vector<int64_t> last_use;
    std::vector<FusedGroup> groups;
    int64_t root = -1;
    int64_t num_einsums = 0;
    int64_t num_exchanges = 0;
};

/**
 * Validates the static facts of an exchange instruction (permute pair
 * sanity, all-to-all divisibility) exactly as the runtime checks used
 * to, so a compiled deferred error carries the identical Status.
 */
Status
ValidateExchangeStatic(const HloInstruction* instr, const Mesh& mesh)
{
    const int64_t n = mesh.num_devices();
    switch (instr->collective_opcode()) {
      case HloOpcode::kAllToAll: {
          int64_t dim = instr->attrs().dim;
          for (const auto& group : instr->attrs().groups) {
              int64_t g = static_cast<int64_t>(group.size());
              if (instr->operand(0)->shape().dim(dim) % g != 0) {
                  return InvalidArgument(
                      "all-to-all dim not divisible by group size");
              }
          }
          return Status::Ok();
      }

      case HloOpcode::kCollectivePermute: {
          // A device may appear at most once as a source and once
          // as a target; a duplicate target would make the result
          // depend on pair order, so it is an error (as in XLA),
          // not a silent overwrite.
          std::vector<bool> seen_src(static_cast<size_t>(n), false);
          std::vector<bool> seen_dst(static_cast<size_t>(n), false);
          for (const auto& [src, dst] :
               instr->attrs().source_target_pairs) {
              if (src < 0 || src >= n || dst < 0 || dst >= n) {
                  return InvalidArgument(StrCat(
                      instr->name(), ": source-target pair {", src, ",",
                      dst, "} outside the ", n, "-device mesh"));
              }
              if (seen_src[static_cast<size_t>(src)]) {
                  return InvalidArgument(StrCat(instr->name(),
                                                ": duplicate source ", src,
                                                " in source-target pairs"));
              }
              if (seen_dst[static_cast<size_t>(dst)]) {
                  return InvalidArgument(StrCat(instr->name(),
                                                ": duplicate target ", dst,
                                                " in source-target pairs"));
              }
              seen_src[static_cast<size_t>(src)] = true;
              seen_dst[static_cast<size_t>(dst)] = true;
          }
          return Status::Ok();
      }

      default: return Status::Ok();
    }
}

/**
 * Compiles `computation` into its pre-resolved execution form. The
 * only hash lookups of an evaluation happen here, once, instead of
 * per-instruction per-device in the hot walk.
 */
CompiledProgram
Compile(const HloComputation& computation, const Mesh& mesh)
{
    CompiledProgram prog;
    std::unordered_map<const HloInstruction*, int32_t> index_of;
    for (const HloInstruction* instr : computation.instructions()) {
        index_of.emplace(instr,
                         static_cast<int32_t>(prog.ops.size()));
        CompiledOp op;
        op.instr = instr;
        op.operands.reserve(instr->operands().size());
        for (const HloInstruction* operand : instr->operands()) {
            op.operands.push_back(index_of.at(operand));
        }
        switch (instr->opcode()) {
          case HloOpcode::kParameter: op.kind = ExecKind::kParam; break;
          case HloOpcode::kConstant:
              op.kind = ExecKind::kConstant;
              break;
          case HloOpcode::kCopy:
          case HloOpcode::kAsyncDone:
              op.kind = ExecKind::kCopyLike;
              break;
          default:
              op.kind = IsExchangeOp(instr->opcode())
                            ? ExecKind::kExchange
                            : ExecKind::kLocal;
              break;
        }
        if (instr->opcode() == HloOpcode::kEinsum) {
            op.einsum_ordinal = prog.num_einsums++;
        }
        if (op.kind == ExecKind::kExchange) {
            op.exchange_ordinal = prog.num_exchanges++;
            Status valid = ValidateExchangeStatic(instr, mesh);
            if (!valid.ok()) {
                op.kind = ExecKind::kDeferredError;
                op.deferred_error = std::move(valid);
            }
        }
        prog.ops.push_back(std::move(op));
    }

    const size_t count = prog.ops.size();
    prog.last_use.resize(count);
    for (size_t j = 0; j < count; ++j) {
        prog.last_use[j] = static_cast<int64_t>(j);
        for (int32_t s : prog.ops[j].operands) {
            prog.last_use[static_cast<size_t>(s)] =
                static_cast<int64_t>(j);
        }
    }
    prog.root = index_of.at(computation.root());
    prog.last_use[static_cast<size_t>(prog.root)] =
        std::numeric_limits<int64_t>::max();

    // Fusion: greedy maximal runs of consecutive fusable elementwise
    // ops whose operand shapes match their output shape (elementwise
    // proper — no implicit broadcast) and whose element counts agree
    // across the run.
    auto fusable = [&](size_t j) {
        const CompiledOp& op = prog.ops[j];
        if (op.kind != ExecKind::kLocal ||
            !IsFusableElementwise(op.instr->opcode())) {
            return false;
        }
        for (const HloInstruction* operand : op.instr->operands()) {
            if (!operand->shape().SameDims(op.instr->shape())) {
                return false;
            }
        }
        return true;
    };
    for (size_t j = 0; j < count;) {
        if (!fusable(j)) {
            ++j;
            continue;
        }
        const int64_t elems = prog.ops[j].instr->shape().num_elements();
        size_t end = j + 1;
        while (end < count && fusable(end) &&
               prog.ops[end].instr->shape().num_elements() == elems) {
            ++end;
        }
        FusedGroup group;
        group.begin = static_cast<int64_t>(j);
        group.end = static_cast<int64_t>(end);
        group.num_elements = elems;
        std::unordered_map<int32_t, int32_t> member_of;
        for (size_t k = j; k < end; ++k) {
            FusedMember member;
            member.opcode = prog.ops[k].instr->opcode();
            member.slot = static_cast<int32_t>(k);
            const auto& operands = prog.ops[k].operands;
            auto encode = [&](int32_t slot) {
                auto it = member_of.find(slot);
                return it != member_of.end() ? it->second : ~slot;
            };
            member.a = encode(operands[0]);
            member.b = operands.size() > 1 ? encode(operands[1])
                                           : member.a;
            member.escapes =
                prog.last_use[k] >= static_cast<int64_t>(end) ||
                static_cast<int64_t>(k) == prog.root;
            member_of.emplace(static_cast<int32_t>(k),
                              static_cast<int32_t>(group.members.size()));
            group.members.push_back(member);
            prog.ops[k].kind = k == j ? ExecKind::kFused
                                      : ExecKind::kFusedInterior;
        }
        prog.ops[j].fused_group =
            static_cast<int32_t>(prog.groups.size());
        prog.groups.push_back(std::move(group));
        j = end;
    }
    return prog;
}

/**
 * One device's value slots. A slot is either *owned* (the walk
 * materialized a tensor into `owned[s]`) or *borrowed* (`view[s]`
 * points at caller-owned storage — a parameter binding or a constant
 * literal — and `owned[s]` stays empty). Operand reads always go
 * through `view`; recycling only ever touches owned slots.
 */
struct Slots {
    std::vector<Tensor> owned;
    std::vector<const Tensor*> view;

    explicit Slots(size_t n) : owned(n), view(n, nullptr) {}

    void SetOwned(size_t s, Tensor t)
    {
        owned[s] = std::move(t);
        view[s] = &owned[s];
    }

    void SetBorrowed(size_t s, const Tensor* t) { view[s] = t; }

    bool IsOwned(size_t s) const { return view[s] == &owned[s]; }
};

/** Recycles every operand of op `j` whose last use is `j`. */
void
RecycleDead(const CompiledProgram& prog, size_t j, Slots* slots)
{
    for (int32_t s : prog.ops[j].operands) {
        if (prog.last_use[static_cast<size_t>(s)] !=
            static_cast<int64_t>(j)) {
            continue;
        }
        if (slots->IsOwned(static_cast<size_t>(s))) {
            Tensor::Recycle(std::move(slots->owned[static_cast<size_t>(s)]));
        }
        slots->view[static_cast<size_t>(s)] = nullptr;
    }
}

/**
 * Executes one fused elementwise group for one device: a single pass
 * over ~512-element blocks, every member computing in program order,
 * interior values staying in scratch lanes (no Tensor, no allocation,
 * no std::function per element). Escaping members write straight into
 * their output tensors. Per element the arithmetic is exactly the
 * seed's ApplyBinary expression, so results are bitwise unchanged.
 */
Status
ExecFusedGroup(const CompiledProgram& prog, const FusedGroup& group,
               Slots* slots)
{
    constexpr int64_t kBlock = 512;
    const size_t m = group.members.size();
    const int64_t count = group.num_elements;

    struct Resolved {
        const float* a_ext = nullptr;
        const float* b_ext = nullptr;
        float* lane = nullptr;  ///< block-local output (scratch or out)
        float* out = nullptr;   ///< full output base when escaping
    };
    std::vector<Resolved> r(m);

    // Materialize escaping outputs first; owned[] has stable addresses
    // (it never grows), so operand pointers resolved next stay valid.
    for (size_t i = 0; i < m; ++i) {
        const FusedMember& member = group.members[i];
        if (!member.escapes) continue;
        slots->SetOwned(
            static_cast<size_t>(member.slot),
            Tensor::Uninitialized(
                prog.ops[static_cast<size_t>(member.slot)]
                    .instr->shape()));
        r[i].out =
            slots->owned[static_cast<size_t>(member.slot)].data();
    }
    size_t num_interior = 0;
    for (size_t i = 0; i < m; ++i) {
        const FusedMember& member = group.members[i];
        if (!member.escapes) ++num_interior;
        if (member.a < 0) {
            size_t s = static_cast<size_t>(~member.a);
            if (slots->view[s] == nullptr) {
                return Internal("fused operand slot unset");
            }
            r[i].a_ext = slots->view[s]->data();
        }
        if (member.b < 0) {
            size_t s = static_cast<size_t>(~member.b);
            if (slots->view[s] == nullptr) {
                return Internal("fused operand slot unset");
            }
            r[i].b_ext = slots->view[s]->data();
        }
    }

    std::vector<float> scratch;
    if (num_interior > 0) {
        scratch = ThreadLocalBufferPool().Acquire(
            num_interior * static_cast<size_t>(kBlock));
        size_t lane = 0;
        for (size_t i = 0; i < m; ++i) {
            if (group.members[i].escapes) continue;
            r[i].lane =
                scratch.data() + lane * static_cast<size_t>(kBlock);
            ++lane;
        }
    }

    for (int64_t b0 = 0; b0 < count; b0 += kBlock) {
        const int64_t len = std::min(kBlock, count - b0);
        for (size_t i = 0; i < m; ++i) {
            const FusedMember& member = group.members[i];
            const float* a =
                member.a >= 0
                    ? (group.members[static_cast<size_t>(member.a)]
                               .escapes
                           ? r[static_cast<size_t>(member.a)].out + b0
                           : r[static_cast<size_t>(member.a)].lane)
                    : r[i].a_ext + b0;
            const float* bp =
                member.b >= 0
                    ? (group.members[static_cast<size_t>(member.b)]
                               .escapes
                           ? r[static_cast<size_t>(member.b)].out + b0
                           : r[static_cast<size_t>(member.b)].lane)
                    : r[i].b_ext + b0;
            float* OVERLAP_RESTRICT o =
                member.escapes ? r[i].out + b0 : r[i].lane;
            switch (member.opcode) {
              case HloOpcode::kAdd:
                  for (int64_t v = 0; v < len; ++v) o[v] = a[v] + bp[v];
                  break;
              case HloOpcode::kSubtract:
                  for (int64_t v = 0; v < len; ++v) o[v] = a[v] - bp[v];
                  break;
              case HloOpcode::kMultiply:
                  for (int64_t v = 0; v < len; ++v) o[v] = a[v] * bp[v];
                  break;
              case HloOpcode::kDivide:
                  for (int64_t v = 0; v < len; ++v) o[v] = a[v] / bp[v];
                  break;
              case HloOpcode::kMaximum:
                  for (int64_t v = 0; v < len; ++v) {
                      o[v] = a[v] > bp[v] ? a[v] : bp[v];
                  }
                  break;
              case HloOpcode::kMinimum:
                  for (int64_t v = 0; v < len; ++v) {
                      o[v] = a[v] < bp[v] ? a[v] : bp[v];
                  }
                  break;
              case HloOpcode::kRemainder:
                  for (int64_t v = 0; v < len; ++v) {
                      o[v] = std::fmod(a[v], bp[v]);
                  }
                  break;
              case HloOpcode::kNegate:
                  for (int64_t v = 0; v < len; ++v) o[v] = -a[v];
                  break;
              default: return Internal("unexpected fused opcode");
            }
        }
    }
    if (num_interior > 0) {
        ThreadLocalBufferPool().Release(std::move(scratch));
    }
    return Status::Ok();
}

/**
 * Evaluates a device-local (non-collective, non-fused) instruction for
 * one device. `operands[i]` is operand i's value on that device.
 */
StatusOr<Tensor>
EvalOp(const HloInstruction* instr,
       const std::vector<const Tensor*>& operands, int64_t device,
       const Mesh& mesh)
{
    switch (instr->opcode()) {
      case HloOpcode::kPartitionId:
          return Tensor(Shape(DType::kS32, {}),
                        {static_cast<float>(device)});

      case HloOpcode::kAxisIndex: {
          int64_t axis = instr->attrs().mesh_axis;
          if (axis < 0 || axis >= mesh.num_axes()) {
              return InvalidArgument("axis-index out of range");
          }
          return Tensor(
              Shape(DType::kS32, {}),
              {static_cast<float>(mesh.PositionInGroup(device, axis))});
      }

      case HloOpcode::kNegate:
          return operands[0]->Map([](float v) { return -v; });

      case HloOpcode::kAdd:
      case HloOpcode::kSubtract:
      case HloOpcode::kMultiply:
      case HloOpcode::kDivide:
      case HloOpcode::kMaximum:
      case HloOpcode::kMinimum:
      case HloOpcode::kRemainder: {
          HloOpcode op = instr->opcode();
          return Tensor::BinaryOp(*operands[0], *operands[1],
                                  [op](float a, float b) {
                                      return ApplyBinary(op, a, b);
                                  });
      }

      case HloOpcode::kBroadcast:
          return Tensor::Full(instr->shape(),
                              operands[0]->ScalarValue());

      case HloOpcode::kReshape:
          return operands[0]->Reshape(instr->shape());

      case HloOpcode::kTranspose:
          return operands[0]->Transpose(instr->attrs().permutation);

      case HloOpcode::kConcatenate: {
          std::vector<Tensor> parts;
          parts.reserve(operands.size());
          for (const Tensor* operand : operands) {
              parts.push_back(*operand);
          }
          return Tensor::Concatenate(parts, instr->attrs().dim);
      }

      case HloOpcode::kPad:
          return operands[0]->Pad(instr->attrs().pad_low,
                                  instr->attrs().pad_high,
                                  instr->attrs().pad_value);

      case HloOpcode::kSlice:
          return operands[0]->Slice(instr->attrs().starts,
                                    instr->attrs().sizes);

      case HloOpcode::kDynamicSlice: {
          int64_t rank = instr->operand(0)->shape().rank();
          return operands[0]->Slice(GatherStarts(operands, 1, rank),
                                    instr->attrs().sizes);
      }

      case HloOpcode::kDynamicUpdateSlice: {
          int64_t rank = instr->operand(0)->shape().rank();
          return operands[0]->UpdateSlice(*operands[1],
                                          GatherStarts(operands, 2, rank));
      }

      case HloOpcode::kEinsum: {
          PhaseTimer timer(einsum_phase_nanos);
          return instr->einsum().Evaluate(*operands[0], *operands[1]);
      }

      case HloOpcode::kTuple: return Tensor::Scalar(0.0f);

      default: break;
    }
    return Internal(StrCat("unexpected local op ",
                           HloOpcodeName(instr->opcode())));
}

/** SDC config + sink threaded through one evaluation. */
struct SdcRuntime {
    const SdcEvalConfig* cfg = nullptr;
    SdcEvalSink* sink = nullptr;

    bool active() const { return cfg != nullptr; }
};

/**
 * Post-processes one device's einsum output under the SDC runtime:
 * injects matching corruptions, then runs the ABFT checksum-row check
 * when this einsum ordinal is due under the cadence. A detection
 * deposits a report and fails with FailedPrecondition, so the corrupted
 * value never reaches the program's downstream instructions.
 */
Status
ApplySdcEinsum(const SdcRuntime& rt, int64_t ordinal, int64_t num_einsums,
               int64_t program_index, const HloInstruction* instr,
               int64_t device, const Tensor& lhs, const Tensor& rhs,
               Tensor* out)
{
    const SdcEvalConfig& cfg = *rt.cfg;
    for (const SilentCorruption& c : cfg.corruptions) {
        if (c.target == CorruptionTarget::kEinsumOutput &&
            c.step == cfg.step && c.instruction == ordinal &&
            c.chip == device) {
            ApplyCorruption(c, out);
        }
    }
    const SdcDetectorConfig& det = cfg.detectors;
    if (det.enabled && det.verify_einsums &&
        AbftChecked(cfg.step, ordinal, num_einsums,
                    det.einsum_check_cadence)) {
        StatusOr<AbftCheckResult> check = AbftVerifyEinsum(
            instr->einsum(), lhs, rhs, *out, det.abft_relative_tolerance);
        if (!check.ok()) return check.status();
        if (!check->ok) {
            CorruptionReport report;
            report.step = cfg.step;
            report.chip = device;
            report.instruction = ordinal;
            report.detector = CorruptionDetector::kEinsumAbft;
            report.injected_step = cfg.step;
            report.residual = check->max_residual;
            report.program_index = program_index;
            if (rt.sink != nullptr) rt.sink->Add(report);
            return FailedPrecondition(
                StrCat("silent data corruption detected: ",
                       report.ToString()));
        }
    }
    return Status::Ok();
}

/** Concatenates pointed-at parts along `dim` (Tensor::Concatenate with
 * no up-front copies; same UpdateSliceInPlace writes, so bitwise the
 * same output). */
Tensor
ConcatParts(const std::vector<const Tensor*>& parts, int64_t dim)
{
    OVERLAP_CHECK(!parts.empty());
    const Shape& first = parts[0]->shape();
    int64_t total = 0;
    for (const Tensor* p : parts) total += p->shape().dim(dim);
    Shape out_shape = first;
    out_shape.set_dim(dim, total);
    Tensor out = Tensor::Uninitialized(std::move(out_shape));
    int64_t offset = 0;
    for (const Tensor* p : parts) {
        std::vector<int64_t> starts(
            static_cast<size_t>(first.rank()), 0);
        starts[static_cast<size_t>(dim)] = offset;
        out.UpdateSliceInPlace(*p, starts);
        offset += p->shape().dim(dim);
    }
    return out;
}

/**
 * Evaluates one replica group of a group-wise collective. `inputs` are
 * the members' operands in group order; the return holds one output per
 * member, same order. Members are always combined in ascending group
 * position, so results are bitwise deterministic.
 */
StatusOr<std::vector<Tensor>>
EvalGroupCollective(const HloInstruction* instr,
                    const std::vector<const Tensor*>& inputs)
{
    const size_t k = inputs.size();
    std::vector<Tensor> outs(k);
    switch (instr->collective_opcode()) {
      case HloOpcode::kAllGather: {
          Tensor gathered = ConcatParts(inputs, instr->attrs().dim);
          for (size_t i = 0; i + 1 < k; ++i) outs[i] = gathered;
          outs[k - 1] = std::move(gathered);
          return outs;
      }

      case HloOpcode::kReduceScatter: {
          int64_t dim = instr->attrs().dim;
          Tensor sum = *inputs[0];
          float* acc = sum.data();
          const int64_t elems = sum.num_elements();
          for (size_t i = 1; i < k; ++i) {
              const float* OVERLAP_RESTRICT add = inputs[i]->data();
              for (int64_t v = 0; v < elems; ++v) acc[v] += add[v];
          }
          int64_t shard = instr->shape().dim(dim);
          for (size_t i = 0; i < k; ++i) {
              std::vector<int64_t> starts(
                  static_cast<size_t>(sum.shape().rank()), 0);
              starts[static_cast<size_t>(dim)] =
                  static_cast<int64_t>(i) * shard;
              std::vector<int64_t> sizes(sum.shape().dims().begin(),
                                         sum.shape().dims().end());
              sizes[static_cast<size_t>(dim)] = shard;
              outs[i] = sum.Slice(starts, sizes);
          }
          Tensor::Recycle(std::move(sum));
          return outs;
      }

      case HloOpcode::kAllReduce: {
          Tensor sum = *inputs[0];
          float* acc = sum.data();
          const int64_t elems = sum.num_elements();
          for (size_t i = 1; i < k; ++i) {
              const float* OVERLAP_RESTRICT add = inputs[i]->data();
              for (int64_t v = 0; v < elems; ++v) acc[v] += add[v];
          }
          for (size_t i = 0; i + 1 < k; ++i) outs[i] = sum;
          outs[k - 1] = std::move(sum);
          return outs;
      }

      case HloOpcode::kAllToAll: {
          int64_t dim = instr->attrs().dim;
          int64_t g = static_cast<int64_t>(k);
          const Shape& in_shape = instr->operand(0)->shape();
          if (in_shape.dim(dim) % g != 0) {
              return InvalidArgument(
                  "all-to-all dim not divisible by group size");
          }
          int64_t piece = in_shape.dim(dim) / g;
          for (int64_t i = 0; i < g; ++i) {
              std::vector<Tensor> parts;
              parts.reserve(k);
              for (int64_t j = 0; j < g; ++j) {
                  std::vector<int64_t> starts(
                      static_cast<size_t>(in_shape.rank()), 0);
                  starts[static_cast<size_t>(dim)] = i * piece;
                  std::vector<int64_t> sizes(in_shape.dims().begin(),
                                             in_shape.dims().end());
                  sizes[static_cast<size_t>(dim)] = piece;
                  parts.push_back(
                      inputs[static_cast<size_t>(j)]->Slice(starts,
                                                            sizes));
              }
              outs[static_cast<size_t>(i)] =
                  Tensor::Concatenate(parts, dim);
          }
          return outs;
      }

      default: break;
    }
    return Internal(StrCat("unexpected group collective ",
                           instr->opcode_text()));
}

/**
 * Evaluates a collective for all devices at once: `inputs[d]` is the
 * operand value on device d, `out` receives every device's result.
 * Arithmetic always runs in fixed group/device order (through
 * EvalGroupCollective).
 */
Status
EvalCollective(const HloInstruction* instr, const Mesh& mesh,
               const std::vector<const Tensor*>& inputs,
               std::vector<Tensor>* out)
{
    const int64_t n = mesh.num_devices();
    // An async Start moves the data like its wrapped collective; the
    // matching Done is a local copy.
    switch (instr->collective_opcode()) {
      case HloOpcode::kAllGather:
      case HloOpcode::kReduceScatter:
      case HloOpcode::kAllReduce:
      case HloOpcode::kAllToAll: {
          for (const auto& group : instr->attrs().groups) {
              std::vector<const Tensor*> group_inputs;
              group_inputs.reserve(group.size());
              for (int64_t member : group) {
                  group_inputs.push_back(
                      inputs[static_cast<size_t>(member)]);
              }
              auto outs = EvalGroupCollective(instr, group_inputs);
              if (!outs.ok()) return outs.status();
              for (size_t i = 0; i < group.size(); ++i) {
                  (*out)[static_cast<size_t>(group[i])] =
                      std::move((*outs)[i]);
              }
          }
          return Status::Ok();
      }

      case HloOpcode::kCollectivePermute: {
          OVERLAP_RETURN_IF_ERROR(ValidateExchangeStatic(instr, mesh));
          std::vector<bool> receives(static_cast<size_t>(n), false);
          for (const auto& [src, dst] :
               instr->attrs().source_target_pairs) {
              receives[static_cast<size_t>(dst)] = true;
              (*out)[static_cast<size_t>(dst)] =
                  *inputs[static_cast<size_t>(src)];
          }
          for (int64_t d = 0; d < n; ++d) {
              if (!receives[static_cast<size_t>(d)]) {
                  (*out)[static_cast<size_t>(d)] =
                      Tensor(instr->shape());
              }
          }
          return Status::Ok();
      }

      default: break;
    }
    return Internal(StrCat("unexpected collective op ",
                           instr->opcode_text()));
}

/**
 * EvalCollective under the SDC runtime: corrupts matching in-flight
 * payloads (on a copy — the sender checksummed the original, exactly
 * like real corruption between NIC and wire) and runs the receiver-side
 * checksum verification before any payload enters the collective
 * arithmetic. A mismatch localizes the culprit source chip, deposits a
 * report and fails with FailedPrecondition; with verification off the
 * corrupted payload propagates into the outputs.
 */
Status
EvalCollectiveSdc(const HloInstruction* instr, const Mesh& mesh,
                  const std::vector<const Tensor*>& inputs,
                  std::vector<Tensor>* out, const SdcRuntime& rt,
                  int64_t exchange_ordinal, int64_t program_index)
{
    if (!rt.active()) return EvalCollective(instr, mesh, inputs, out);
    const SdcEvalConfig& cfg = *rt.cfg;
    const int64_t n = mesh.num_devices();

    const bool checksummed =
        cfg.detectors.enabled && cfg.detectors.verify_transfers;
    std::vector<uint64_t> sent;
    if (checksummed) {
        sent.resize(static_cast<size_t>(n));
        for (int64_t d = 0; d < n; ++d) {
            sent[static_cast<size_t>(d)] =
                PayloadChecksum(*inputs[static_cast<size_t>(d)]);
        }
    }

    std::vector<const Tensor*> patched = inputs;
    size_t matches = 0;
    for (const SilentCorruption& c : cfg.corruptions) {
        if (c.target == CorruptionTarget::kTransferPayload &&
            c.step == cfg.step && c.instruction == exchange_ordinal &&
            c.chip >= 0 && c.chip < n) {
            ++matches;
        }
    }
    std::vector<Tensor> copies;
    copies.reserve(matches);
    for (const SilentCorruption& c : cfg.corruptions) {
        if (c.target != CorruptionTarget::kTransferPayload ||
            c.step != cfg.step || c.instruction != exchange_ordinal ||
            c.chip < 0 || c.chip >= n) {
            continue;
        }
        copies.push_back(*patched[static_cast<size_t>(c.chip)]);
        ApplyCorruption(c, &copies.back());
        patched[static_cast<size_t>(c.chip)] = &copies.back();
    }

    if (checksummed) {
        for (int64_t d = 0; d < n; ++d) {
            if (PayloadChecksum(*patched[static_cast<size_t>(d)]) ==
                sent[static_cast<size_t>(d)]) {
                continue;
            }
            CorruptionReport report;
            report.step = cfg.step;
            report.chip = d;
            report.instruction = exchange_ordinal;
            report.detector = CorruptionDetector::kTransferChecksum;
            report.injected_step = cfg.step;
            report.program_index = program_index;
            if (rt.sink != nullptr) rt.sink->Add(report);
            return FailedPrecondition(
                StrCat("silent data corruption detected: ",
                       report.ToString()));
        }
    }
    return EvalCollective(instr, mesh, patched, out);
}

/** Executes one non-exchange op for one device against its slots. */
Status
ExecLocalForDevice(const CompiledProgram& prog, size_t j,
                   Slots* slots, int64_t d, const Mesh& mesh,
                   const std::vector<std::vector<Tensor>>& params,
                   const SdcRuntime& sdc)
{
    const CompiledOp& op = prog.ops[j];
    const HloInstruction* instr = op.instr;
    const int64_t n = mesh.num_devices();
    switch (op.kind) {
      case ExecKind::kParam: {
          int64_t p = instr->attrs().parameter_number;
          if (p < 0 || p >= static_cast<int64_t>(params.size())) {
              return InvalidArgument(
                  StrCat("no value for parameter ", p));
          }
          const auto& provided = params[static_cast<size_t>(p)];
          if (static_cast<int64_t>(provided.size()) != n &&
              provided.size() != 1) {
              return InvalidArgument(
                  StrCat("parameter ", p, " needs 1 or ", n,
                         " values, got ", provided.size()));
          }
          const Tensor& v = provided.size() == 1
                                ? provided[0]
                                : provided[static_cast<size_t>(d)];
          if (!v.shape().SameDims(instr->shape())) {
              return InvalidArgument(
                  StrCat("parameter ", p, " shape ",
                         v.shape().ToString(), " != declared ",
                         instr->shape().ToString()));
          }
          // Parameters are borrowed, never copied: the caller's tensor
          // outlives the evaluation and slots are read-only views.
          slots->SetBorrowed(j, &v);
          return Status::Ok();
      }

      case ExecKind::kConstant:
          slots->SetBorrowed(j, instr->attrs().literal.get());
          return Status::Ok();

      case ExecKind::kCopyLike: {
          size_t s = static_cast<size_t>(op.operands[0]);
          if (slots->view[s] == nullptr) {
              return Internal("copy operand slot unset");
          }
          if (!slots->IsOwned(s)) {
              // Borrowed stays borrowed — a Copy of a parameter costs
              // nothing.
              slots->SetBorrowed(j, slots->view[s]);
          } else if (prog.last_use[s] == static_cast<int64_t>(j)) {
              slots->SetOwned(j, std::move(slots->owned[s]));
          } else {
              slots->SetOwned(j, *slots->view[s]);
          }
          return Status::Ok();
      }

      case ExecKind::kFused: {
          return ExecFusedGroup(
              prog, prog.groups[static_cast<size_t>(op.fused_group)],
              slots);
      }

      case ExecKind::kDeferredError: return op.deferred_error;

      default: break;
    }

    std::vector<const Tensor*> operands;
    operands.reserve(op.operands.size());
    for (int32_t s : op.operands) {
        operands.push_back(slots->view[static_cast<size_t>(s)]);
    }
    auto result = EvalOp(instr, operands, d, mesh);
    if (!result.ok()) return result.status();
    slots->SetOwned(j, std::move(result).value());
    if (instr->opcode() == HloOpcode::kEinsum && sdc.active()) {
        OVERLAP_RETURN_IF_ERROR(ApplySdcEinsum(
            sdc, op.einsum_ordinal, prog.num_einsums,
            static_cast<int64_t>(j), instr, d, *operands[0],
            *operands[1], &slots->owned[j]));
    }
    return Status::Ok();
}

/** Moves (or copies, for a borrowed slot) the root value out. */
Tensor
TakeRoot(const CompiledProgram& prog, Slots* slots)
{
    size_t root = static_cast<size_t>(prog.root);
    if (slots->IsOwned(root)) return std::move(slots->owned[root]);
    return *slots->view[root];
}

}  // namespace

void
SdcEvalSink::Add(const CorruptionReport& report)
{
    std::lock_guard<std::mutex> lock(mu_);
    reports_.push_back(report);
}

void
SdcEvalSink::Clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    reports_.clear();
}

bool
SdcEvalSink::detected() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return !reports_.empty();
}

std::vector<CorruptionReport>
SdcEvalSink::reports() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return reports_;
}

std::optional<CorruptionReport>
SdcEvalSink::Primary() const
{
    std::lock_guard<std::mutex> lock(mu_);
    const CorruptionReport* best = nullptr;
    for (const CorruptionReport& report : reports_) {
        if (best == nullptr || report.program_index < best->program_index ||
            (report.program_index == best->program_index &&
             report.chip < best->chip)) {
            best = &report;
        }
    }
    if (best == nullptr) return std::nullopt;
    return *best;
}

StatusOr<std::vector<Tensor>>
SpmdEvaluator::Evaluate(const HloComputation& computation,
                        const std::vector<std::vector<Tensor>>& params) const
{
    const int64_t n = mesh_.num_devices();
    SdcRuntime sdc{options_.sdc, options_.sdc_sink};
    CompiledProgram prog = Compile(computation, mesh_);

    std::vector<Slots> devices;
    devices.reserve(static_cast<size_t>(n));
    for (int64_t d = 0; d < n; ++d) devices.emplace_back(prog.ops.size());

    for (size_t j = 0; j < prog.ops.size(); ++j) {
        const CompiledOp& op = prog.ops[j];
        switch (op.kind) {
          case ExecKind::kFusedInterior: continue;

          case ExecKind::kDeferredError: return op.deferred_error;

          case ExecKind::kFused: {
              const FusedGroup& group =
                  prog.groups[static_cast<size_t>(op.fused_group)];
              for (int64_t d = 0; d < n; ++d) {
                  OVERLAP_RETURN_IF_ERROR(ExecFusedGroup(
                      prog, group, &devices[static_cast<size_t>(d)]));
              }
              for (int64_t jj = group.begin; jj < group.end; ++jj) {
                  for (int64_t d = 0; d < n; ++d) {
                      RecycleDead(prog, static_cast<size_t>(jj),
                                  &devices[static_cast<size_t>(d)]);
                  }
              }
              break;
          }

          case ExecKind::kExchange: {
              size_t s = static_cast<size_t>(op.operands[0]);
              std::vector<const Tensor*> inputs;
              inputs.reserve(static_cast<size_t>(n));
              for (int64_t d = 0; d < n; ++d) {
                  inputs.push_back(
                      devices[static_cast<size_t>(d)].view[s]);
              }
              std::vector<Tensor> outs(static_cast<size_t>(n));
              {
                  PhaseTimer timer(collective_phase_nanos);
                  OVERLAP_RETURN_IF_ERROR(EvalCollectiveSdc(
                      op.instr, mesh_, inputs, &outs, sdc,
                      op.exchange_ordinal, static_cast<int64_t>(j)));
              }
              for (int64_t d = 0; d < n; ++d) {
                  devices[static_cast<size_t>(d)].SetOwned(
                      j, std::move(outs[static_cast<size_t>(d)]));
              }
              for (int64_t d = 0; d < n; ++d) {
                  RecycleDead(prog, j, &devices[static_cast<size_t>(d)]);
              }
              break;
          }

          default: {
              for (int64_t d = 0; d < n; ++d) {
                  OVERLAP_RETURN_IF_ERROR(ExecLocalForDevice(
                      prog, j, &devices[static_cast<size_t>(d)], d,
                      mesh_, params, sdc));
              }
              for (int64_t d = 0; d < n; ++d) {
                  RecycleDead(prog, j, &devices[static_cast<size_t>(d)]);
              }
              break;
          }
        }
    }

    std::vector<Tensor> roots;
    roots.reserve(static_cast<size_t>(n));
    for (int64_t d = 0; d < n; ++d) {
        roots.push_back(
            TakeRoot(prog, &devices[static_cast<size_t>(d)]));
    }
    return roots;
}

StatusOr<std::vector<std::vector<Tensor>>>
SpmdEvaluator::EvaluateBatch(
    const std::vector<const HloComputation*>& computations,
    const std::vector<std::vector<Tensor>>& params) const
{
    std::vector<std::vector<Tensor>> outputs;
    outputs.reserve(computations.size());
    for (const HloComputation* computation : computations) {
        auto result = Evaluate(*computation, params);
        if (!result.ok()) return result.status();
        outputs.push_back(std::move(result).value());
    }
    return outputs;
}

StatusOr<Tensor>
EvaluateGlobal(const HloComputation& computation,
               const std::vector<Tensor>& params)
{
    SpmdEvaluator evaluator((Mesh(1)));
    std::vector<std::vector<Tensor>> per_device;
    per_device.reserve(params.size());
    for (const Tensor& p : params) per_device.push_back({p});
    auto result = evaluator.Evaluate(computation, per_device);
    if (!result.ok()) return result.status();
    return std::move(result).value()[0];
}

}  // namespace overlap
