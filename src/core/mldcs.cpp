#include "core/mldcs.hpp"

#include <cmath>
#include <sstream>

#include "core/skyline_dc.hpp"
#include "geometry/radial.hpp"
#include "geometry/tolerance.hpp"

namespace mldcs::core {

std::string describe_local_set_violation(std::span<const geom::Disk> disks,
                                         geom::Vec2 o) {
  if (!std::isfinite(o.x) || !std::isfinite(o.y)) {
    return "relay position is not finite";
  }
  for (std::size_t i = 0; i < disks.size(); ++i) {
    const geom::Disk& d = disks[i];
    std::ostringstream msg;
    if (!std::isfinite(d.center.x) || !std::isfinite(d.center.y) ||
        !std::isfinite(d.radius)) {
      msg << "disk " << i << " has non-finite center or radius";
      return msg.str();
    }
    if (d.radius < 0.0) {
      msg << "disk " << i << " has negative radius " << d.radius;
      return msg.str();
    }
    if (!d.contains(o)) {
      msg << "disk " << i << " = " << d
          << " does not contain the relay position " << o
          << " (distance " << geom::distance(d.center, o)
          << " > radius " << d.radius
          << "): not a local disk set";
      return msg.str();
    }
  }
  return {};
}

LocalDiskSet::LocalDiskSet(geom::Vec2 origin, std::vector<geom::Disk> disks)
    : origin_(origin), disks_(std::move(disks)) {
  const std::string err = describe_local_set_violation(disks_, origin_);
  if (!err.empty()) throw InvalidLocalDiskSet(err);
}

std::vector<std::size_t> mldcs(const LocalDiskSet& set) {
  return skyline_of(set).skyline_set();
}

Skyline skyline_of(const LocalDiskSet& set) {
  SkylineWorkspace ws;
  return compute_skyline(set.disks(), set.origin(), ws);
}

}  // namespace mldcs::core
