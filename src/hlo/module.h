#ifndef OVERLAP_HLO_MODULE_H_
#define OVERLAP_HLO_MODULE_H_

#include <memory>
#include <optional>
#include <string>

#include "hlo/computation.h"
#include "tensor/mesh.h"

namespace overlap {

/**
 * A compilation unit: one entry computation plus the SPMD context it runs
 * under. A *global* module describes the unpartitioned program (sharding
 * annotations on instructions describe intent); a *per-device* module (the
 * output of the SPMD partitioner) executes identically on every device of
 * `mesh()` — single program, multiple data.
 */
class HloModule {
  public:
    explicit HloModule(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

    /** Creates the entry computation; call once. */
    HloComputation* AddEntryComputation(const std::string& name);

    HloComputation* entry() const { return entry_.get(); }

    /**
     * Swaps in a replacement entry computation and returns it; used by
     * the guarded pass pipeline to restore its verified input before it
     * replays the pipeline without a failed pass. Every HloInstruction*
     * into the old entry is invalidated.
     */
    HloComputation* ReplaceEntry(std::unique_ptr<HloComputation> entry);

    /** Deep copy of the module (entry computation, mesh, name). */
    std::unique_ptr<HloModule> Clone() const;

    /** Device mesh for SPMD execution (set on per-device modules). */
    const std::optional<Mesh>& mesh() const { return mesh_; }
    void set_mesh(Mesh mesh) { mesh_ = std::move(mesh); }

    int64_t num_devices() const
    {
        return mesh_.has_value() ? mesh_->num_devices() : 1;
    }

    std::string ToString() const;

  private:
    std::string name_;
    std::unique_ptr<HloComputation> entry_;
    std::optional<Mesh> mesh_;
};

}  // namespace overlap

#endif  // OVERLAP_HLO_MODULE_H_
