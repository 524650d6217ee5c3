#ifndef OVERLAP_TENSOR_MESH_H_
#define OVERLAP_TENSOR_MESH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace overlap {

/**
 * A logical device mesh (1-D ring or 2-D torus) onto which tensors are
 * partitioned, mirroring the paper's [M, N] mesh of TPU chips.
 *
 * Axis 0 is "x" (size M) and axis 1 is "y" (size N), matching Figure 3:
 * a tensor dimension divided by M is partitioned along x, by N along y.
 * Device IDs are row-major over mesh coordinates.
 */
class Mesh {
  public:
    /** 1-D mesh (ring) of `n` devices. */
    explicit Mesh(int64_t n) : dims_{n} {}

    /** 2-D mesh (torus) of shape [m, n]. */
    Mesh(int64_t m, int64_t n) : dims_{m, n} {}

    /** A mesh of any rank; the model configs use the two above. */
    explicit Mesh(std::vector<int64_t> dims) : dims_(std::move(dims)) {}

    int64_t num_axes() const { return static_cast<int64_t>(dims_.size()); }
    int64_t axis_size(int64_t axis) const { return dims_.at(axis); }
    int64_t num_devices() const;

    /** Mesh coordinates of a device ID (row-major). */
    std::vector<int64_t> Coords(int64_t device) const;

    /** Device ID for mesh coordinates. */
    int64_t DeviceAt(const std::vector<int64_t>& coords) const;

    /**
     * All communication subgroups along `axis`: each group contains the
     * devices that differ only in their `axis` coordinate, ordered by that
     * coordinate. E.g. on a [2,4] mesh, Groups(1) yields 2 groups of 4.
     */
    std::vector<std::vector<int64_t>> Groups(int64_t axis) const;

    /**
     * The position of `device` within its subgroup along `axis`
     * (its coordinate on that axis).
     */
    int64_t PositionInGroup(int64_t device, int64_t axis) const;

    /**
     * The device `step` positions further along the ring on `axis`
     * (wrapping), holding other coordinates fixed.
     */
    int64_t RingNeighbor(int64_t device, int64_t axis, int64_t step) const;

    std::string ToString() const;

    /**
     * Infers which mesh axis a collective's device groups run along by
     * matching them against Groups(axis); -1 if no axis matches.
     */
    int64_t InferGroupsAxis(
        const std::vector<std::vector<int64_t>>& groups) const;

    bool operator==(const Mesh& other) const { return dims_ == other.dims_; }

  private:
    std::vector<int64_t> dims_;
};

}  // namespace overlap

#endif  // OVERLAP_TENSOR_MESH_H_
