#include "core/mldcs.hpp"

#include "core/skyline_dc.hpp"
#include "core/validate.hpp"

namespace mldcs::core {

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
