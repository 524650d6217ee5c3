#include "tensor/mesh.h"

#include "support/status.h"
#include "support/strings.h"

namespace overlap {

int64_t
Mesh::num_devices() const
{
    int64_t n = 1;
    for (int64_t d : dims_) n *= d;
    return n;
}

std::vector<int64_t>
Mesh::Coords(int64_t device) const
{
    OVERLAP_CHECK(device >= 0 && device < num_devices());
    std::vector<int64_t> coords(dims_.size());
    for (int64_t a = static_cast<int64_t>(dims_.size()) - 1; a >= 0; --a) {
        coords[static_cast<size_t>(a)] = device % dims_[static_cast<size_t>(a)];
        device /= dims_[static_cast<size_t>(a)];
    }
    return coords;
}

int64_t
Mesh::DeviceAt(const std::vector<int64_t>& coords) const
{
    OVERLAP_CHECK(coords.size() == dims_.size());
    int64_t device = 0;
    for (size_t a = 0; a < dims_.size(); ++a) {
        OVERLAP_CHECK(coords[a] >= 0 && coords[a] < dims_[a]);
        device = device * dims_[a] + coords[a];
    }
    return device;
}

std::vector<std::vector<int64_t>>
Mesh::Groups(int64_t axis) const
{
    OVERLAP_CHECK(axis >= 0 && axis < num_axes());
    std::vector<std::vector<int64_t>> groups;
    int64_t group_size = dims_[static_cast<size_t>(axis)];
    int64_t num_groups = num_devices() / group_size;
    groups.reserve(static_cast<size_t>(num_groups));
    // Enumerate the fixed coordinates of the other axes.
    std::vector<int64_t> coords(dims_.size(), 0);
    for (int64_t g = 0; g < num_groups; ++g) {
        std::vector<int64_t> group;
        group.reserve(static_cast<size_t>(group_size));
        for (int64_t i = 0; i < group_size; ++i) {
            coords[static_cast<size_t>(axis)] = i;
            group.push_back(DeviceAt(coords));
        }
        groups.push_back(std::move(group));
        // Advance the non-axis coordinates (row-major).
        for (int64_t a = static_cast<int64_t>(dims_.size()) - 1; a >= 0;
             --a) {
            if (a == axis) continue;
            if (++coords[static_cast<size_t>(a)] <
                dims_[static_cast<size_t>(a)]) {
                break;
            }
            coords[static_cast<size_t>(a)] = 0;
        }
    }
    return groups;
}

int64_t
Mesh::PositionInGroup(int64_t device, int64_t axis) const
{
    return Coords(device)[static_cast<size_t>(axis)];
}

int64_t
Mesh::RingNeighbor(int64_t device, int64_t axis, int64_t step) const
{
    std::vector<int64_t> coords = Coords(device);
    int64_t size = dims_[static_cast<size_t>(axis)];
    coords[static_cast<size_t>(axis)] =
        ((coords[static_cast<size_t>(axis)] + step) % size + size) % size;
    return DeviceAt(coords);
}

std::string
Mesh::ToString() const
{
    return StrCat("mesh[", StrJoin(dims_, ","), "]");
}

int64_t
Mesh::InferGroupsAxis(const std::vector<std::vector<int64_t>>& groups) const
{
    // Checks each axis's Groups() layout without building it: group g
    // holds base(g) + i * stride for i < size, where stride is the
    // product of the later axes' sizes and base(g) enumerates the other
    // axes' coordinates row-major.
    const int64_t devices = num_devices();
    auto laid_out_along = [&groups, devices](int64_t size, int64_t stride) {
        if (static_cast<int64_t>(groups.size()) != devices / size) {
            return false;
        }
        for (size_t g = 0; g < groups.size(); ++g) {
            if (static_cast<int64_t>(groups[g].size()) != size) return false;
            const int64_t index = static_cast<int64_t>(g);
            const int64_t base =
                index / stride * stride * size + index % stride;
            for (int64_t i = 0; i < size; ++i) {
                if (groups[g][static_cast<size_t>(i)] != base + i * stride) {
                    return false;
                }
            }
        }
        return true;
    };
    int64_t stride = devices;
    for (int64_t axis = 0; axis < num_axes(); ++axis) {
        const int64_t size = dims_[static_cast<size_t>(axis)];
        stride /= size;
        if (laid_out_along(size, stride)) return axis;
    }
    return -1;
}

}  // namespace overlap
