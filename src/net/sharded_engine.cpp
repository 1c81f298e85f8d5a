#include "net/sharded_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/profiler.hpp"
#include "obs/shard_stats.hpp"
#include "obs/telemetry.hpp"

namespace mldcs::net {

namespace {

/// Sharding telemetry (docs/OBSERVABILITY.md): how much state the tiling
/// replicates (halo residents), how much it moves per step (routed halo
/// updates, border migrations), and how well the barrier balances (per
/// shard, time spent waiting for the slowest shard).  Histograms take one
/// sample per shard per step, so their distributions read across shards.
struct ShardTelemetry {
  obs::Counter& steps = obs::registry().counter("shard.steps");
  obs::Counter& exchanged = obs::registry().counter("shard.exchanged");
  obs::Counter& migrations = obs::registry().counter("shard.migrations");
  obs::Gauge& count = obs::registry().gauge("shard.count");
  obs::Histogram& halo_nodes = obs::registry().histogram("shard.halo_nodes");
  obs::Histogram& incoming = obs::registry().histogram("shard.incoming");
  obs::Histogram& barrier_wait_ns =
      obs::registry().histogram("shard.barrier_wait_ns");
};

ShardTelemetry& shard_telemetry() {
  static ShardTelemetry t;
  return t;
}

/// Factor `shards` into rows*cols so tiles stay as square as the
/// deployment aspect allows: among divisor pairs, maximize the smaller
/// tile side.  Degenerate extents force a single row/column.
void choose_grid(std::size_t shards, double width, double height,
                 std::size_t& rows, std::size_t& cols) {
  rows = 1;
  cols = shards;
  if (height <= 0.0) return;
  if (width <= 0.0) {
    rows = shards;
    cols = 1;
    return;
  }
  double best = -1.0;
  for (std::size_t r = 1; r <= shards; ++r) {
    if (shards % r != 0) continue;
    const std::size_t c = shards / r;
    const double min_side = std::min(width / static_cast<double>(c),
                                     height / static_cast<double>(r));
    if (min_side > best) {
      best = min_side;
      rows = r;
      cols = c;
    }
  }
}

}  // namespace

ShardedEngine::ShardedEngine(std::vector<Node> nodes, sim::ThreadPool& pool,
                             Config config)
    : pool_(&pool) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].id = static_cast<NodeId>(i);
  }
  nodes_ = std::move(nodes);
  const std::size_t n = nodes_.size();

  geom::BBox positions;
  for (const Node& node : nodes_) {
    positions.expand(node.pos);
    max_radius_ = std::max(max_radius_, node.radius);
  }
  if (n == 0) positions = {{0.0, 0.0}, {0.0, 0.0}};
  deployment_ = config.deployment.empty() ? positions : config.deployment;
  for (const Node& node : nodes_) {
    if (!deployment_.contains(node.pos)) {
      throw std::invalid_argument(
          "ShardedEngine: initial position outside the deployment rectangle");
    }
  }

  const std::size_t shards = std::max<std::size_t>(1, config.shards);
  choose_grid(shards, deployment_.width(), deployment_.height(), rows_, cols_);
  tile_w_ = deployment_.width() / static_cast<double>(cols_);
  tile_h_ = deployment_.height() / static_cast<double>(rows_);

  owner_of_.resize(n);
  owned_count_.assign(shards, 0);
  for (const Node& node : nodes_) {
    const std::uint32_t t = tile_of(node.pos);
    owner_of_[node.id] = t;
    ++owned_count_[t];
  }

  // Region = tile dilated by the max radius: every link of an owned node
  // fits inside (a link spans at most max_radius), so owned adjacency is
  // complete.  Shard construction is embarrassingly parallel — each builds
  // its own grid and seeds its residents' adjacency from DiskGraph::build
  // over a private copy of the nodes; while shards build side by side,
  // sim::fan_out_pool() keeps those builds inline.
  shards_.resize(shards);
  pool_->parallel_for(shards, [this](std::size_t s) {
    const std::size_t r = s / cols_;
    const std::size_t c = s % cols_;
    const geom::BBox tile{
        {deployment_.min.x + static_cast<double>(c) * tile_w_,
         deployment_.min.y + static_cast<double>(r) * tile_h_},
        {deployment_.min.x + static_cast<double>(c + 1) * tile_w_,
         deployment_.min.y + static_cast<double>(r + 1) * tile_h_}};
    shards_[s] = std::make_unique<Shard>(
        std::vector<Node>(nodes_.begin(), nodes_.end()),
        tile.inflated(max_radius_));
  });

  // Eager registration: touching shard_telemetry() here materializes every
  // shard.* series, so a /snapshot.json taken before the first step already
  // carries them (same fix PR 4 applied to the thread pool's pool.*).
  ShardTelemetry& t = shard_telemetry();
  t.count.set(static_cast<std::int64_t>(shards));

  // Load slots observers read (obs/shard_stats.hpp): seeded with the
  // initial ownership split so `/shards` is meaningful before step one.
  load_ = std::make_unique<ShardLoad[]>(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    load_[s].owned.store(owned_count_[s], std::memory_order_relaxed);
    load_[s].halo.store(halo_count(s), std::memory_order_relaxed);
  }
  obs::set_shard_stats_provider(
      this, [this](std::vector<obs::ShardStat>& out) {
        const std::size_t count = shards_.size();
        out.reserve(count);
        for (std::size_t s = 0; s < count; ++s) {
          const ShardLoad& l = load_[s];
          out.push_back({static_cast<std::uint32_t>(s),
                         l.owned.load(std::memory_order_relaxed),
                         l.halo.load(std::memory_order_relaxed),
                         l.incoming.load(std::memory_order_relaxed),
                         l.dirty.load(std::memory_order_relaxed),
                         l.step_ns.load(std::memory_order_relaxed),
                         l.barrier_wait_ns.load(std::memory_order_relaxed)});
        }
        return published_step_.load(std::memory_order_acquire);
      });
  // The constructing thread drives phase 1/3 of every step; make sure it
  // shows up in profiles (pool workers register in worker_loop).
  obs::profiler_register_thread();
}

ShardedEngine::~ShardedEngine() {
  obs::clear_shard_stats_provider(this);
}

std::uint32_t ShardedEngine::tile_of(geom::Vec2 p) const noexcept {
  std::int64_t cx = 0;
  std::int64_t cy = 0;
  if (cols_ > 1) {
    cx = static_cast<std::int64_t>(
        std::floor((p.x - deployment_.min.x) / tile_w_));
    cx = std::clamp<std::int64_t>(cx, 0, static_cast<std::int64_t>(cols_) - 1);
  }
  if (rows_ > 1) {
    cy = static_cast<std::int64_t>(
        std::floor((p.y - deployment_.min.y) / tile_h_));
    cy = std::clamp<std::int64_t>(cy, 0, static_cast<std::int64_t>(rows_) - 1);
  }
  return static_cast<std::uint32_t>(
      cy * static_cast<std::int64_t>(cols_) + cx);
}

double ShardedEngine::halo_fraction() const noexcept {
  if (nodes_.empty() || shards_.size() <= 1) return 0.0;
  std::size_t resident = 0;
  for (const auto& sh : shards_) resident += sh->graph.resident_count();
  return static_cast<double>(resident - nodes_.size()) /
         static_cast<double>(nodes_.size());
}

MLDCS_HOT_PATH void ShardedEngine::step(std::span<const Node> current,
                                        std::span<const NodeId> moved_hint) {
  if (current.size() != nodes_.size()) {
    throw std::invalid_argument("ShardedEngine::step: node count changed");
  }
  // The hint range and the deployment-rectangle contract, checked before
  // any owner or position state changes.  NaN positions fail contains()
  // too.
  for (const NodeId u : moved_hint) {
    if (u >= nodes_.size()) {
      throw std::invalid_argument(
          "ShardedEngine::step: hinted node out of range");
    }
    if (!deployment_.contains(current[u].pos)) {
      throw std::invalid_argument(
          "ShardedEngine::step: position outside the deployment rectangle");
    }
  }
  const obs::Scope scope(obs::Phase::kEngineStep);

  // Phase 1 (serial): ownership commit.  Owner tiles follow the *new*
  // positions so the parallel phase — including any cache hook — reads one
  // stable owner map; border crossings are this step's migrations.
  {
    const obs::Scope phase(obs::Phase::kStepOwnership);
    migrated_.clear();
    for (const NodeId u : moved_hint) {
      const std::uint32_t t = tile_of(current[u].pos);
      const std::uint32_t prev = owner_of_[u];
      if (t != prev) {
        migrated_.push_back(u);
        --owned_count_[prev];
        ++owned_count_[t];
        owner_of_[u] = t;
      }
    }
    migrations_ += migrated_.size();
  }

  // Phase 2 (parallel, the per-step barrier): every shard routes the
  // movers whose old (nodes_) or new (current) position falls in its
  // region, applies them to its region graph, then runs the hook.  Reads
  // shared state only (nodes_, current, owner map); writes shard-local
  // state only — zero cross-shard locking.
  pool_->parallel_blocks(
      shards_.size(), 1,
      [&](std::size_t /*slot*/, std::size_t s, std::size_t /*hi*/) {
        const obs::Scope phase(obs::Phase::kShardStep);
        Shard& sh = *shards_[s];
        const std::int64_t t0 = obs::clock_ns();
        {
          // Halo exchange proper: routing movers into the shard's region
          // and applying them to its graph.  The hook (cache recompute)
          // tags its own phase.
          const obs::Scope halo(obs::Phase::kHaloExchange);
          sh.incoming.clear();
          for (const NodeId u : moved_hint) {
            if (sh.region.contains(nodes_[u].pos) ||
                sh.region.contains(current[u].pos)) {
              sh.incoming.push_back(u);
            }
          }
          sh.graph.apply(current, sh.incoming);
        }
        if (hook_) hook_(s);
        sh.step_ns = static_cast<std::uint64_t>(obs::clock_ns() - t0);
      });

  // Phase 3 (serial): commit global positions and report.
  const obs::Scope phase(obs::Phase::kStepCommit);
  for (const NodeId u : moved_hint) nodes_[u].pos = current[u].pos;
  ++steps_;

  std::uint64_t slowest = 0;
  std::size_t exchanged = 0;
  for (const auto& sh : shards_) {
    slowest = std::max(slowest, sh->step_ns);
    exchanged += sh->incoming.size();
  }
  ShardTelemetry& t = shard_telemetry();
  t.steps.add();
  t.exchanged.add(exchanged);
  t.migrations.add(migrated_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::uint64_t halo = halo_count(s);
    const std::uint64_t incoming = shards_[s]->incoming.size();
    const std::uint64_t wait = slowest - shards_[s]->step_ns;
    t.halo_nodes.record(halo);
    t.incoming.record(incoming);
    t.barrier_wait_ns.record(wait);
    // Observer load slots (read by /shards and heartbeat frames): relaxed
    // stores only — nothing added to the hot path beyond what the metric
    // records above already cost.
    ShardLoad& l = load_[s];
    l.owned.store(owned_count_[s], std::memory_order_relaxed);
    l.halo.store(halo, std::memory_order_relaxed);
    l.incoming.store(incoming, std::memory_order_relaxed);
    l.step_ns.store(shards_[s]->step_ns, std::memory_order_relaxed);
    l.barrier_wait_ns.store(wait, std::memory_order_relaxed);
  }
  published_step_.store(steps_, std::memory_order_release);

  last_event_ = obs::emit_event(
      obs::EventType::kShardExchange, static_cast<std::uint32_t>(exchanged),
      static_cast<std::uint32_t>(migrated_.size()), obs::kNoEvent, steps_);
}

}  // namespace mldcs::net
