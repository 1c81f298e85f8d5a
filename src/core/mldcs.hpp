#pragma once

/// \file mldcs.hpp
/// Public entry points for the Minimum Local Disk Cover Set problem
/// (paper Section 3.2).
///
/// Input: a local disk set {B(u_0,r_0), ..., B(u_n,r_n)} such that every
/// u_i is a bidirectional neighbor of the relay u_0 — equivalently, the
/// relay position `o` = u_0 lies in every disk.  Output: a minimum-
/// cardinality subset of disks whose union equals the union of all disks.
/// By Theorem 3 this subset is exactly the skyline set, computed here in
/// O(n log n) by the divide-and-conquer algorithm.

#include <span>
#include <stdexcept>
#include <vector>

#include "core/skyline.hpp"
#include "geometry/disk.hpp"
#include "geometry/vec2.hpp"

namespace mldcs::core {

/// Error thrown when an input violates the local-disk-set precondition
/// (some disk does not contain the relay, a radius is negative/non-finite,
/// or a coordinate is non-finite).
class InvalidLocalDiskSet : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// A validated local disk set: the relay position `o` plus the coverage
/// disks of the relay and its 1-hop neighbors.
class LocalDiskSet {
 public:
  /// Validates the precondition ||o - u_i|| <= r_i for every disk and that
  /// all values are finite (describe_local_set_violation, validate.hpp);
  /// throws InvalidLocalDiskSet otherwise.
  LocalDiskSet(geom::Vec2 origin, std::vector<geom::Disk> disks);

  [[nodiscard]] geom::Vec2 origin() const noexcept { return origin_; }
  [[nodiscard]] std::span<const geom::Disk> disks() const noexcept {
    return disks_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return disks_.size(); }
  [[nodiscard]] bool empty() const noexcept { return disks_.empty(); }

 private:
  geom::Vec2 origin_;
  std::vector<geom::Disk> disks_;
};

/// Compute the minimum local disk cover set of a validated local disk set:
/// sorted indices (into `set.disks()`) of a minimum subset whose disk union
/// equals the union of all disks.  O(n log n).
///
/// This and skyline_of are one-shot calls: each builds a SkylineWorkspace
/// for the call.  A loop over many sets holds one workspace and calls
/// compute_skyline (skyline_dc.hpp) instead.
[[nodiscard]] std::vector<std::size_t> mldcs(const LocalDiskSet& set);

/// The full skyline of a validated local disk set (arcs, not just the set);
/// useful for rendering, area computation, and the Lemma 8 instrumentation.
[[nodiscard]] Skyline skyline_of(const LocalDiskSet& set);

}  // namespace mldcs::core
