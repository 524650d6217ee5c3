#include "hlo/verifier.h"

#include <unordered_set>

#include "support/strings.h"

namespace overlap {
namespace {

/// Meshes up to this many devices get dense mark arrays. A larger one
/// only comes from a malformed module, and falls back to a hash set so
/// that a declared mesh size cannot make the verifier allocate its size.
constexpr int64_t kMaxDenseDevices = int64_t{1} << 16;

/**
 * A set of device ids, emptied before each device list it checks. With a
 * mesh every id is range-checked before it is inserted, so the set is an
 * epoch-stamped mark array over the mesh's devices: allocated once per
 * verified computation, shared by all of its instructions, and emptied by
 * bumping the epoch. Without a mesh the ids are unchecked (the parser
 * accepts any int64), so they go into a hash set and nothing is sized by
 * an id's value.
 */
class DeviceSet {
  public:
    explicit DeviceSet(int64_t num_devices)
        : stamps_(num_devices > 0 && num_devices <= kMaxDenseDevices
                      ? static_cast<size_t>(num_devices)
                      : 0,
                  0)
    {
    }

    void Clear()
    {
        if (stamps_.empty()) {
            sparse_.clear();
        } else {
            ++epoch_;  // 64 bits: never wraps within one computation
        }
    }

    /** Adds `device`; false if the set already holds it. */
    bool Insert(int64_t device)
    {
        if (stamps_.empty()) return sparse_.insert(device).second;
        uint64_t& stamp = stamps_[static_cast<size_t>(device)];
        if (stamp == epoch_) return false;
        stamp = epoch_;
        return true;
    }

  private:
    std::vector<uint64_t> stamps_;
    uint64_t epoch_ = 1;
    std::unordered_set<int64_t> sparse_;
};

/**
 * The device sets one VerifyComputation call lends its collectives, and
 * the pair lists it has already checked. A list is immutable and shared
 * by every permute of one ring shift, so its checks (which depend only
 * on the list and the mesh) run once, at the first permute carrying it.
 */
struct DeviceSets {
    explicit DeviceSets(int64_t num_devices)
        : groups(num_devices), sources(num_devices), targets(num_devices)
    {
    }

    DeviceSet groups;
    DeviceSet sources;
    DeviceSet targets;
    std::unordered_set<const SourceTargetPairs::List*> checked_pairs;
};

Status
VerifyShape(const HloInstruction* instr)
{
    switch (instr->opcode()) {
      case HloOpcode::kParameter:
          if (instr->attrs().parameter_number < 0) {
              return InvalidArgument("parameter without parameter_number");
          }
          return Status::Ok();
      case HloOpcode::kConstant:
          if (!instr->attrs().literal.has_value()) {
              return InvalidArgument("constant without literal");
          }
          if (!instr->attrs().literal->shape().SameDims(instr->shape())) {
              return InvalidArgument(
                  StrCat("constant shape mismatch at %", instr->name()));
          }
          return Status::Ok();
      case HloOpcode::kBroadcast:
          if (instr->operand_count() != 1 ||
              instr->operand(0)->shape().rank() != 0) {
              return InvalidArgument(
                  StrCat("broadcast expects one scalar operand at %",
                         instr->name()));
          }
          return Status::Ok();
      default: {
          auto inferred = InferInstructionShape(
              instr->opcode(), instr->operands(), instr->attrs());
          if (!inferred.ok()) {
              return InvalidArgument(
                  StrCat("shape inference failed at %", instr->name(), ": ",
                         inferred.status().message()));
          }
          if (!(inferred.value() == instr->shape())) {
              return InvalidArgument(StrCat(
                  "shape mismatch at %", instr->name(), ": declared ",
                  instr->shape().ToString(), " inferred ",
                  inferred.value().ToString()));
          }
          return Status::Ok();
      }
    }
}

Status
VerifyCollective(const HloInstruction* instr, int64_t num_devices,
                 DeviceSets* sets)
{
    const InstrAttrs& attrs = instr->attrs();
    // all-to-all-start shares the blocking form's group layout, so it goes
    // through the same group sanity checks.
    if (IsBlockingCollective(instr->opcode()) ||
        instr->opcode() == HloOpcode::kAllToAllStart) {
        if (attrs.groups.empty()) {
            return InvalidArgument(
                StrCat("collective without groups at %", instr->name()));
        }
        DeviceSet& seen = sets->groups;
        seen.Clear();
        int64_t seen_count = 0;
        size_t group_size = attrs.groups[0].size();
        for (const auto& group : attrs.groups) {
            if (group.size() != group_size) {
                return InvalidArgument(StrCat(
                    "ragged collective groups at %", instr->name()));
            }
            for (int64_t device : group) {
                if (device < 0 ||
                    (num_devices > 0 && device >= num_devices)) {
                    return InvalidArgument(StrCat(
                        "device ", device, " out of range at %",
                        instr->name()));
                }
                if (!seen.Insert(device)) {
                    return InvalidArgument(
                        StrCat("device ", device,
                               " appears twice in groups at %",
                               instr->name()));
                }
                ++seen_count;
            }
        }
        if (num_devices > 0 && seen_count != num_devices) {
            return InvalidArgument(
                StrCat("collective groups do not cover all ", num_devices,
                       " devices at %", instr->name()));
        }
    }
    if ((instr->opcode() == HloOpcode::kCollectivePermute ||
         instr->opcode() == HloOpcode::kCollectivePermuteStart) &&
        sets->checked_pairs.insert(attrs.source_target_pairs.get())
            .second) {
        sets->sources.Clear();
        sets->targets.Clear();
        for (const auto& [src, dst] : attrs.source_target_pairs) {
            if (src < 0 || dst < 0 ||
                (num_devices > 0 &&
                 (src >= num_devices || dst >= num_devices))) {
                return InvalidArgument(StrCat(
                    "permute pair out of range at %", instr->name()));
            }
            if (!sets->sources.Insert(src)) {
                return InvalidArgument(StrCat(
                    "duplicate permute source at %", instr->name()));
            }
            if (!sets->targets.Insert(dst)) {
                return InvalidArgument(StrCat(
                    "duplicate permute target at %", instr->name()));
            }
        }
    }
    if (IsAsyncStart(instr->opcode())) {
        const HloOpcode want_done =
            instr->opcode() == HloOpcode::kCollectivePermuteStart
                ? HloOpcode::kCollectivePermuteDone
                : HloOpcode::kAllToAllDone;
        int64_t done_users = 0;
        for (const HloInstruction* user : instr->users()) {
            if (user->opcode() == want_done) {
                ++done_users;
            } else {
                return InvalidArgument(
                    StrCat(HloOpcodeName(instr->opcode()),
                           " used by non-done %", user->name()));
            }
        }
        if (done_users != 1) {
            return InvalidArgument(
                StrCat(HloOpcodeName(instr->opcode()),
                       " needs exactly one done user at %", instr->name()));
        }
    }
    if (IsAsyncDone(instr->opcode()) && instr->operand_count() == 1 &&
        instr->operand(0)->attrs().channel_id !=
            instr->attrs().channel_id) {
        return InvalidArgument(
            StrCat(HloOpcodeName(instr->opcode()), " channel ",
                   instr->attrs().channel_id, " != its start's channel ",
                   instr->operand(0)->attrs().channel_id, " at %",
                   instr->name()));
    }
    if (attrs.a2a_chunk != -1) {
        if (instr->opcode() != HloOpcode::kCollectivePermute &&
            instr->opcode() != HloOpcode::kCollectivePermuteStart &&
            instr->opcode() != HloOpcode::kCollectivePermuteDone) {
            return InvalidArgument(
                StrCat("chunk attribute on non-permute %", instr->name()));
        }
        if (attrs.a2a_chunk < 1) {
            return InvalidArgument(
                StrCat("chunk attribute out of range at %", instr->name()));
        }
    }
    return Status::Ok();
}

/**
 * A set of one computation's instructions, held as a slot per id. A
 * slot stores the instruction's pointer rather than a flag, so an
 * instruction of another computation that reuses a local id (or carries
 * an id past the local bound) is never taken for a member: its slot
 * holds the local instruction, or nothing.
 */
class InstructionSlots {
  public:
    explicit InstructionSlots(const HloComputation& computation)
        : slots_(static_cast<size_t>(computation.instruction_id_bound()),
                 nullptr)
    {
    }

    bool Contains(const HloInstruction* instr) const
    {
        return instr->id() >= 0 &&
               instr->id() < static_cast<int64_t>(slots_.size()) &&
               slots_[static_cast<size_t>(instr->id())] == instr;
    }

    /** Takes `instr`'s slot; an id past the bound has none. */
    void Insert(const HloInstruction* instr)
    {
        if (instr->id() >= 0 &&
            instr->id() < static_cast<int64_t>(slots_.size())) {
            slots_[static_cast<size_t>(instr->id())] = instr;
        }
    }

  private:
    std::vector<const HloInstruction*> slots_;
};

}  // namespace

Status
VerifyComputation(const HloComputation& computation, int64_t num_devices)
{
    if (computation.root() == nullptr) {
        return InvalidArgument("computation has no root");
    }
    std::vector<HloInstruction*> instrs = computation.instructions();
    InstructionSlots defined(computation);
    std::unordered_set<int64_t> param_numbers;
    int64_t param_count = 0;
    DeviceSets device_sets(num_devices);
    for (const HloInstruction* instr : instrs) {
        for (const HloInstruction* operand : instr->operands()) {
            if (!defined.Contains(operand)) {
                return InvalidArgument(
                    StrCat("operand %", operand->name(),
                           " not defined before %", instr->name()));
            }
            if (!operand->HasUser(instr)) {
                return Internal(StrCat("missing user edge %",
                                       operand->name(), " -> %",
                                       instr->name()));
            }
        }
        OVERLAP_RETURN_IF_ERROR(VerifyShape(instr));
        OVERLAP_RETURN_IF_ERROR(
            VerifyCollective(instr, num_devices, &device_sets));
        if (instr->opcode() == HloOpcode::kParameter) {
            ++param_count;
            if (!param_numbers.insert(instr->attrs().parameter_number)
                     .second) {
                return InvalidArgument(
                    StrCat("duplicate parameter number at %",
                           instr->name()));
            }
        }
        defined.Insert(instr);
    }
    for (int64_t p = 0; p < param_count; ++p) {
        if (param_numbers.count(p) == 0) {
            return InvalidArgument(
                StrCat("parameter numbers not dense: missing ", p));
        }
    }
    if (!defined.Contains(computation.root())) {
        return InvalidArgument("root is not in the computation");
    }
    return VerifySchedule(computation);
}

Status
VerifySchedule(const HloComputation& computation)
{
    if (!computation.has_schedule()) return Status::Ok();
    const auto& schedule = computation.schedule();
    if (static_cast<int64_t>(schedule.size()) !=
        computation.instruction_count()) {
        return InvalidArgument("schedule length mismatch");
    }
    InstructionSlots scheduled(computation);
    for (const HloInstruction* instr : schedule) {
        for (const HloInstruction* operand : instr->operands()) {
            if (!scheduled.Contains(operand)) {
                return InvalidArgument(
                    StrCat("schedule places %", instr->name(),
                           " before its operand %", operand->name()));
            }
        }
        if (scheduled.Contains(instr)) {
            return InvalidArgument(StrCat(
                "schedule repeats %", instr->name()));
        }
        scheduled.Insert(instr);
    }
    return Status::Ok();
}

Status
VerifyModule(const HloModule& module)
{
    if (module.entry() == nullptr) {
        return InvalidArgument("module has no entry computation");
    }
    int64_t num_devices =
        module.mesh().has_value() ? module.mesh()->num_devices() : -1;
    return VerifyComputation(*module.entry(), num_devices);
}

}  // namespace overlap
