/// Performance-tracking suite — the repo's perf trajectory, one JSON per
/// run (BENCH_skyline.json, uploaded per-commit by the bench-smoke CI job;
/// format documented in docs/PERFORMANCE.md).
///
/// Measurements:
///  1. single-relay skyline, narrow-band hard regime (nearly equal radii,
///     neighbors pushed to the rim, so almost every disk survives into the
///     skyline): the iterative SkylineWorkspace engine vs the recursive
///     divide-and-conquer baseline, with heap allocations per call counted
///     by a replaced global operator new.
///  2. batched all-relay throughput on the ~1000-node heterogeneous
///     deployment: compute_all_skylines vs the pre-batch per-relay loop
///     (LocalView + skyline_forwarding_set) and vs a bare per-relay
///     compute_skyline loop; plus one skyline simulate_broadcast on the
///     same graph, with its time and allocations, and library deliver
///     over the sweep's sets (deliver_ns).
///  3. DiskGraph::build timings at growing deployment sizes (count-then-
///     fill CSR construction), and the whole-plane DynamicDiskGraph
///     constructor on the same deployments (grid buckets plus lists seeded
///     from that build).
///  4. compute_all_skylines thread scaling: the batched sweep at several
///     pool sizes, reported as speedup over one thread.
///  5. mobility steady state: incremental maintenance (DynamicDiskGraph
///     edge diffs + SkylineCache dirty-relay recomputation) vs a full
///     per-step rebuild, across mobility regimes, with per-step
///     bit-identity verified against the rebuild along the way.
///  6. single-relay skyline SIMD dispatch: the workspace engine under the
///     runtime-dispatched kernels vs the same engine pinned to the scalar
///     reference kernels (ScopedKernelOverride), so a silent regression to
///     the fallback shows up as simd_vs_scalar_speedup ~ 1.0.
///  7. one relay at the paper's density: relay_forwarding_set over every
///     relay of measurement 2's deployment on one thread, with the disks
///     that enter each relay's skyline call and those its sector-bound
///     prefilter lets into the merge.
///  8. sharded mobility: the tiled ShardedEngine + ShardedSkylineCache at
///     growing deployment sizes (10k / 100k, plus 1M in --full) and shard
///     counts {1, 2, 4, 8}, each shard count on its own pool of that many
///     workers.  Reports recomputed relays/s, halo-node fraction, and
///     speedup_vs_1_shard; every other step a stride sample of relays is
///     compared bit-for-bit against a single-engine SkylineCache that
///     replayed the identical trajectory (recorded in an untimed pass), so
///     the scaling numbers are for provably identical output.
///
/// The JSON header carries a provenance object (compiler, build flags,
/// detected SIMD ISA, dispatch choice) so BENCH_history.jsonl deltas are
/// attributable to toolchain or dispatch changes, not just code.
///
/// Usage: perf_suite [--quick] [--threads N] [--out PATH]
///                   [--list-sections] [--section NAME]...
///                   [observability flags]
///
/// --section restricts the run to the named section(s); skipped sections
/// are simply absent from the JSON (tools/check_bench.py warns and moves
/// on).  The observability flags (--trace, --telemetry, --events,
/// --blackbox, --profile, --introspect) are obs::RunOutputs'
/// (obs/run_outputs.hpp); here the blackbox records one heartbeat per
/// section boundary and one at the end.  The event log, the profiler and
/// a polled server perturb timings, so keep them off when regenerating
/// BENCH_skyline.json; the provenance block records the server, the
/// blackbox and the profile ("introspect", "blackbox", "profile").

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "broadcast/all_skylines.hpp"
#include "broadcast/broadcast_sim.hpp"
#include "broadcast/forwarding.hpp"
#include "broadcast/local_view.hpp"
#include "broadcast/relay_skyline.hpp"
#include "broadcast/sharded_cache.hpp"
#include "broadcast/skyline_cache.hpp"
#include "core/scenarios.hpp"
#include "core/skyline_dc.hpp"
#include "core/skyline_reference.hpp"
#include "geometry/angle.hpp"
#include "geometry/simd.hpp"
#include "net/dynamic_disk_graph.hpp"
#include "net/mobility.hpp"
#include "net/sharded_engine.hpp"
#include "net/topology.hpp"
#include "obs/blackbox.hpp"
#include "obs/run_outputs.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "support/alloc_guard.hpp"

// Allocation counting comes from the shared interposer the tests also use
// (tests/support/alloc_guard.hpp): referencing allocation_count() links the
// program-wide counting operator new replacement into this binary.

namespace {

using namespace mldcs;

std::uint64_t allocations() noexcept { return test::allocation_count(); }

// --- Measurement harness ---------------------------------------------------

struct Measurement {
  double ns_per_op = 0.0;
  double allocs_per_op = 0.0;
  std::uint64_t reps = 0;
};

/// Repeat `fn` until ~`budget_ns` of wall time is spent (first batch of 1,
/// doubling), then report per-op time and per-op heap allocations.
template <typename F>
Measurement measure(double budget_ns, F&& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warmup: grow workspaces/thread-locals outside the measurement
  Measurement m;
  std::uint64_t batch = 1;
  double total_ns = 0.0;
  std::uint64_t total_reps = 0;
  std::uint64_t total_allocs = 0;
  while (total_ns < budget_ns) {
    const std::uint64_t a0 = allocations();
    const auto t0 = clock::now();
    for (std::uint64_t r = 0; r < batch; ++r) fn();
    const auto t1 = clock::now();
    total_allocs += allocations() - a0;
    total_ns += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    total_reps += batch;
    batch *= 2;
  }
  m.ns_per_op = total_ns / static_cast<double>(total_reps);
  m.allocs_per_op =
      static_cast<double>(total_allocs) / static_cast<double>(total_reps);
  m.reps = total_reps;
  return m;
}

// --- Provenance -------------------------------------------------------------

/// Compiler identification, from predefined macros (no subprocesses).
std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Effective optimization flags, captured by the build system.
std::string build_flags() {
#if defined(MLDCS_BENCH_BUILD_TYPE)
  return std::string(MLDCS_BENCH_BUILD_TYPE) + ": " + MLDCS_BENCH_BUILD_FLAGS;
#else
  return "unknown";
#endif
}

// --- JSON writer ------------------------------------------------------------

struct JsonWriter {
  std::ostream& os;
  bool first = true;

  void sep() {
    if (!first) os << ",";
    first = false;
  }
  void key(const std::string& k) {
    sep();
    os << "\"" << k << "\":";
  }
  void field(const std::string& k, double v) {
    key(k);
    os << v;
  }
  void field(const std::string& k, std::uint64_t v) {
    key(k);
    os << v;
  }
  void field(const std::string& k, const std::string& v) {
    key(k);
    os << "\"" << v << "\"";
  }
  void open_obj(const char* k = nullptr) {
    if (k != nullptr) key(k);
    else sep();
    os << "{";
    first = true;
  }
  void close_obj() {
    os << "}";
    first = false;
  }
  void open_arr(const char* k) {
    key(k);
    os << "[";
    first = true;
  }
  void close_arr() {
    os << "]";
    first = false;
  }
};

/// The JSON section names, in run order — the contract shared with
/// --section, --list-sections, and tools/check_bench.py.
constexpr const char* kSections[] = {
    "single_relay_skyline", "batch_all_relays", "graph_build",
    "batch_all_relays_threads", "mobility_steady_state",
    "single_relay_skyline_simd", "single_relay_paper_density",
    "sharded_mobility"};

bool known_section(const std::string& name) {
  for (const char* s : kSections) {
    if (name == s) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  obs::RunOutputs outputs(std::cout, std::cerr);
  if (!outputs.parse(argc, argv)) return 2;
  bool quick = false;
  std::size_t n_threads = 0;  // 0 = hardware concurrency
  std::string out_path = "BENCH_skyline.json";
  std::vector<std::string> sections;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      const auto n = obs::parse_decimal(argv[++i], SIZE_MAX);
      if (!n) {
        std::cerr << "error: --threads expects N >= 0 (0: every core)\n";
        return 2;
      }
      n_threads = static_cast<std::size_t>(*n);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--section" && i + 1 < argc) {
      sections.emplace_back(argv[++i]);
      if (!known_section(sections.back())) {
        std::cerr << "error: unknown section '" << sections.back()
                  << "' (see --list-sections)\n";
        return 2;
      }
    } else if (arg == "--list-sections") {
      for (const char* s : kSections) std::cout << s << "\n";
      return 0;
    } else {
      std::cerr << "usage: perf_suite [--quick] [--threads N] [--out PATH]\n"
                   "  [--list-sections] [--section NAME]...\n  "
                << obs::RunOutputs::kUsage << "\n";
      return 2;
    }
  }
  const double budget_ns = quick ? 3e7 : 3e8;
  // No --section flags = run everything.  Each section that runs opens a
  // blackbox heartbeat frame (a no-op when the recorder is disarmed), so
  // a crash dump pins down which section was in flight.
  std::uint64_t section_no = 0;
  const auto run_section = [&sections, &section_no](const char* name) {
    const bool run =
        sections.empty() ||
        std::find(sections.begin(), sections.end(), name) != sections.end();
    if (run) obs::blackbox_heartbeat(++section_no);
    return run;
  };
  if (!outputs.start()) return 1;

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot open " << out_path << " for writing\n";
    return 1;
  }
  out.precision(6);
  JsonWriter j{out};

  sim::ThreadPool pool(n_threads);
  std::cout << "perf_suite: " << (quick ? "quick" : "full") << " mode, "
            << pool.size() << " worker thread(s), writing " << out_path
            << "\n";

  j.open_obj();
  j.field("schema", std::string("mldcs-perf-v1"));
  j.field("mode", std::string(quick ? "quick" : "full"));
  j.field("threads", static_cast<std::uint64_t>(pool.size()));
  j.open_obj("provenance");
  j.field("compiler", compiler_id());
  j.field("build_flags", build_flags());
  j.field("simd_compiled",
          std::string(geom::simd::simd_compiled() ? "yes" : "no"));
  j.field("detected_isa", std::string(geom::simd::detected_isa()));
  j.field("dispatch", std::string(geom::simd::dispatch_choice()));
  // Thread-scaling sections are meaningless without the core count: a
  // 1.0x curve on a 1-core host is physics, on a 16-core host a bug.
  j.field("hardware_concurrency",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  // An attached observer (live endpoint polls, heartbeat snapshots) can
  // perturb timings, so its presence is provenance, like the dispatch.
  j.field("introspect", outputs.introspect_note());
  j.field("blackbox", outputs.blackbox_note());
  j.field("profile", outputs.profile_note());
  j.close_obj();
  std::cout << "  provenance: " << compiler_id() << "; simd dispatch "
            << geom::simd::dispatch_choice() << " (detected "
            << geom::simd::detected_isa() << ")\n";

  // --- 1. single-relay skyline, workspace vs recursive ---------------------
  if (run_section("single_relay_skyline")) {
  j.open_arr("single_relay_skyline");
  for (const std::size_t n : {std::size_t{64}, std::size_t{256},
                              std::size_t{1024}, std::size_t{4096}}) {
    sim::Xoshiro256 rng(0xBADC0FFEEULL + n);
    const std::vector<geom::Disk> disks =
        core::narrow_band_set(rng, n).disks;
    const geom::Vec2 o{0.0, 0.0};

    core::SkylineWorkspace ws;
    std::vector<core::Arc> arcs;
    const Measurement m_ws = measure(budget_ns, [&] {
      core::compute_skyline_arcs(disks, o, ws, arcs);
    });
    const Measurement m_rec = measure(budget_ns, [&] {
      const core::Skyline sky = core::compute_skyline_recursive(disks, o);
      if (sky.arc_count() == 0) std::abort();  // keep the optimizer honest
    });
    const double arcs_per_disk =
        static_cast<double>(arcs.size()) / static_cast<double>(n);

    std::cout << "  skyline n=" << n << ": workspace " << m_ws.ns_per_op
              << " ns/op (" << m_ws.allocs_per_op << " allocs), recursive "
              << m_rec.ns_per_op << " ns/op (" << m_rec.allocs_per_op
              << " allocs)\n";

    j.open_obj();
    j.field("n_disks", static_cast<std::uint64_t>(n));
    j.field("skyline_arcs", static_cast<std::uint64_t>(arcs.size()));
    j.field("arcs_per_disk", arcs_per_disk);
    j.open_obj("workspace");
    j.field("ns_per_op", m_ws.ns_per_op);
    j.field("ops_per_s", 1e9 / m_ws.ns_per_op);
    j.field("allocs_per_op", m_ws.allocs_per_op);
    j.field("reps", m_ws.reps);
    j.close_obj();
    j.open_obj("recursive");
    j.field("ns_per_op", m_rec.ns_per_op);
    j.field("ops_per_s", 1e9 / m_rec.ns_per_op);
    j.field("allocs_per_op", m_rec.allocs_per_op);
    j.field("reps", m_rec.reps);
    j.close_obj();
    j.field("speedup_vs_recursive", m_rec.ns_per_op / m_ws.ns_per_op);
    j.field("alloc_ratio_vs_recursive",
            m_ws.allocs_per_op / (m_rec.allocs_per_op > 0.0
                                      ? m_rec.allocs_per_op
                                      : 1.0));
    j.close_obj();
  }
  j.close_arr();
  }

  // --- 1b. single-relay skyline, dispatched kernels vs scalar pin ----------
  // Same engine, same workload; only the kernel set differs.  On a host
  // where dispatch lands on a wide ISA this reports the SIMD multiplier in
  // isolation; when dispatch is already scalar (no wide kernels compiled,
  // or MLDCS_SIMD=off) both runs measure the same code and the speedup
  // sits at ~1.0 — check_bench.py gates on it either way to catch silent
  // regressions to the fallback.
  if (run_section("single_relay_skyline_simd")) {
    j.open_arr("single_relay_skyline_simd");
    for (const std::size_t n :
         {std::size_t{64}, std::size_t{256}, std::size_t{1024}}) {
      sim::Xoshiro256 rng(0xBADC0FFEEULL + n);
      const std::vector<geom::Disk> disks =
          core::narrow_band_set(rng, n).disks;
      const geom::Vec2 o{0.0, 0.0};

      core::SkylineWorkspace ws;
      std::vector<core::Arc> arcs;
      const Measurement m_active = measure(budget_ns, [&] {
        core::compute_skyline_arcs(disks, o, ws, arcs);
      });
      Measurement m_scalar;
      {
        const geom::simd::ScopedKernelOverride pin(
            geom::simd::scalar_kernels());
        m_scalar = measure(budget_ns, [&] {
          core::compute_skyline_arcs(disks, o, ws, arcs);
        });
      }

      std::cout << "  skyline-simd n=" << n << ": "
                << geom::simd::dispatch_choice() << " " << m_active.ns_per_op
                << " ns/op, scalar " << m_scalar.ns_per_op << " ns/op => "
                << m_scalar.ns_per_op / m_active.ns_per_op << "x\n";

      j.open_obj();
      j.field("n_disks", static_cast<std::uint64_t>(n));
      j.field("dispatch", std::string(geom::simd::dispatch_choice()));
      j.open_obj("active");
      j.field("ns_per_op", m_active.ns_per_op);
      j.field("ops_per_s", 1e9 / m_active.ns_per_op);
      j.field("allocs_per_op", m_active.allocs_per_op);
      j.field("reps", m_active.reps);
      j.close_obj();
      j.open_obj("scalar");
      j.field("ns_per_op", m_scalar.ns_per_op);
      j.field("ops_per_s", 1e9 / m_scalar.ns_per_op);
      j.field("allocs_per_op", m_scalar.allocs_per_op);
      j.field("reps", m_scalar.reps);
      j.close_obj();
      j.field("simd_vs_scalar_speedup",
              m_scalar.ns_per_op / m_active.ns_per_op);
      j.close_obj();
    }
    j.close_arr();
  }

  // --- 1c. one relay at the paper's density --------------------------------
  // relay_forwarding_set over every relay of section 2's deployment (radii
  // U[1,2], target degree 36.8, ~1000 nodes) on one thread: the per-relay
  // cost that the sweep, the cache update and each skyline broadcast's
  // transmitters all pay.  disks_in_per_relay and survivors_per_relay (disks
  // the sector-bound prefilter lets into the merge) depend only on the
  // seed; check_bench.py gates the survivors, so a weakened bound fails.
  if (run_section("single_relay_paper_density")) {
    net::DeploymentParams p;
    p.model = net::RadiusModel::kUniform;
    p.target_avg_degree = 36.8;
    sim::Xoshiro256 rng(0x5EEDC0DEULL);
    const net::DiskGraph g = net::generate_graph(p, rng);
    const auto n_relays = static_cast<net::NodeId>(g.size());

    // Reserved as RelayBatch reserves it: the two level buffers trade
    // places every merge level, so after one warm-up sweep the buffer a
    // later relay needs can still be short of capacity.
    std::size_t max_degree = 0;
    for (net::NodeId u = 0; u < n_relays; ++u) {
      max_degree = std::max(max_degree, g.neighbors(u).size());
    }
    bcast::detail::RelayScratch scratch;
    scratch.reserve(max_degree);
    const Measurement m = measure(budget_ns, [&] {
      std::uint64_t arcs = 0;
      for (net::NodeId u = 0; u < n_relays; ++u) {
        arcs += bcast::detail::relay_forwarding_set(g, u, scratch);
      }
      if (arcs == 0) std::abort();
    });
    // The same local sets relay_forwarding_set builds, once more with
    // MergeStats to count what enters the merge.
    core::MergeStats stats;
    std::uint64_t disks_in = 0;
    std::uint64_t arcs_total = 0;
    {
      core::SkylineWorkspace ws;
      std::vector<geom::Disk> disks;
      std::vector<core::Arc> arcs;
      for (net::NodeId u = 0; u < n_relays; ++u) {
        disks.clear();
        disks.push_back(g.node(u).disk());
        for (const net::NodeId v : g.neighbors(u)) {
          disks.push_back(g.node(v).disk());
        }
        disks_in += disks.size();
        core::compute_skyline_arcs(disks, g.node(u).pos, ws, arcs, &stats);
        arcs_total += arcs.size();
      }
    }
    const double relays = static_cast<double>(n_relays);
    const double ns_per_relay = m.ns_per_op / relays;
    const double survivors = static_cast<double>(stats.survivors) / relays;
    const double in = static_cast<double>(disks_in) / relays;

    std::cout << "  paper-density relay (" << n_relays << " relays): "
              << ns_per_relay << " ns/relay (" << m.allocs_per_op / relays
              << " allocs), " << in << " disks in, " << survivors
              << " into the merge\n";

    j.open_obj("single_relay_paper_density");
    j.field("nodes", static_cast<std::uint64_t>(n_relays));
    j.field("avg_degree", g.average_degree());
    j.field("ns_per_relay", ns_per_relay);
    j.field("relays_per_s", 1e9 / ns_per_relay);
    j.field("allocs_per_relay", m.allocs_per_op / relays);
    j.field("disks_in_per_relay", in);
    j.field("survivors_per_relay", survivors);
    j.field("arcs_per_relay", static_cast<double>(arcs_total) / relays);
    j.field("reps", m.reps);
    j.close_obj();
  }

  // --- 2. batched all-relay throughput -------------------------------------
  // The paper's heterogeneous deployment scaled to ~1000 nodes (side fixed,
  // degree raised until node_count_for lands at 1000).
  if (run_section("batch_all_relays")) {
    net::DeploymentParams p;
    p.model = net::RadiusModel::kUniform;
    p.target_avg_degree = 36.8;  // node_count_for(p) ~= 1000 on 12.5 x 12.5
    sim::Xoshiro256 rng(0x5EEDC0DEULL);
    const net::DiskGraph g = net::generate_graph(p, rng);

    const Measurement m_batch = measure(budget_ns, [&] {
      const bcast::AllSkylines all = bcast::compute_all_skylines(g, pool);
      if (all.size() != g.size()) std::abort();
    });
    // The pre-batch loop exactly as tbl_all_relays ran it: LocalView (with
    // its 2-hop BFS) + per-relay skyline forwarding set.
    const Measurement m_loop = measure(budget_ns, [&] {
      std::size_t total = 0;
      for (net::NodeId u = 0; u < g.size(); ++u) {
        total += bcast::skyline_forwarding_set(g, bcast::local_view(g, u))
                     .size();
      }
      if (total == 0) std::abort();
    });
    // Bare per-relay compute_skyline loop: 1-hop disks only, recursive
    // engine, no LocalView — isolates the skyline-engine gain.
    const Measurement m_bare = measure(budget_ns, [&] {
      std::vector<geom::Disk> disks;
      std::size_t total = 0;
      for (net::NodeId u = 0; u < g.size(); ++u) {
        disks.clear();
        disks.push_back(g.node(u).disk());
        for (const net::NodeId v : g.neighbors(u)) {
          disks.push_back(g.node(v).disk());
        }
        total +=
            core::compute_skyline_recursive(disks, g.node(u).pos).arc_count();
      }
      if (total == 0) std::abort();
    });
    // One skyline broadcast from node 0 on the same graph: the simulator's
    // per-transmitter sets come from the same relay loop as the sweep.
    const Measurement m_sim = measure(budget_ns, [&] {
      const bcast::BroadcastResult r =
          bcast::simulate_broadcast(g, 0, bcast::Scheme::kSkyline);
      if (r.transmissions == 0) std::abort();
    });
    // Delivery alone: library deliver from node 0 over the sweep's sets,
    // its reachability BFS included, on kept scratch.
    const bcast::AllSkylines swept = bcast::compute_all_skylines(g, pool);
    const auto swept_set = [&swept](net::NodeId u) {
      return swept.forwarding_set(u);
    };
    bcast::DeliveryScratch delivery;
    const Measurement m_deliver = measure(budget_ns, [&] {
      const bcast::BroadcastResult r = bcast::deliver(
          g, 0, bcast::Scheme::kSkyline, swept_set,
          bcast::ReceptionModel::kBidirectionalLink, delivery);
      if (r.transmissions == 0) std::abort();
    });

    const double n_nodes = static_cast<double>(g.size());
    std::cout << "  all-relays (" << g.size() << " nodes, avg degree "
              << g.average_degree() << "): batch " << m_batch.ns_per_op / 1e6
              << " ms, per-relay loop " << m_loop.ns_per_op / 1e6
              << " ms, bare skyline loop " << m_bare.ns_per_op / 1e6
              << " ms => speedup " << m_loop.ns_per_op / m_batch.ns_per_op
              << "x; skyline broadcast " << m_sim.ns_per_op / 1e6 << " ms ("
              << m_sim.allocs_per_op << " allocs), deliver over held sets "
              << m_deliver.ns_per_op / 1e3 << " us\n";

    j.open_obj("batch_all_relays");
    j.field("nodes", static_cast<std::uint64_t>(g.size()));
    j.field("edges", static_cast<std::uint64_t>(g.edge_count()));
    j.field("avg_degree", g.average_degree());
    j.field("batch_ns", m_batch.ns_per_op);
    j.field("batch_allocs", m_batch.allocs_per_op);
    j.field("batch_relays_per_s", n_nodes * 1e9 / m_batch.ns_per_op);
    j.field("per_relay_loop_ns", m_loop.ns_per_op);
    j.field("per_relay_loop_allocs", m_loop.allocs_per_op);
    j.field("bare_skyline_loop_ns", m_bare.ns_per_op);
    j.field("bare_skyline_loop_allocs", m_bare.allocs_per_op);
    j.field("speedup_vs_per_relay_loop",
            m_loop.ns_per_op / m_batch.ns_per_op);
    j.field("speedup_vs_bare_skyline_loop",
            m_bare.ns_per_op / m_batch.ns_per_op);
    j.field("simulate_broadcast_skyline_ns", m_sim.ns_per_op);
    j.field("simulate_broadcast_skyline_allocs", m_sim.allocs_per_op);
    j.field("deliver_ns", m_deliver.ns_per_op);
    j.close_obj();
  }

  // --- 3. graph build ------------------------------------------------------
  if (run_section("graph_build")) {
  j.open_arr("graph_build");
  for (const double scale : (quick ? std::vector<double>{1.0, 4.0}
                                   : std::vector<double>{1.0, 4.0, 16.0})) {
    net::DeploymentParams p;
    p.model = net::RadiusModel::kUniform;
    p.target_avg_degree = 36.8;
    p.side = 12.5 * std::sqrt(scale);  // constant density: ~1000 * scale nodes
    sim::Xoshiro256 rng(0xD15C0ULL + static_cast<std::uint64_t>(scale));
    std::vector<net::Node> nodes = net::generate_deployment(p, rng);
    const std::size_t n_nodes = nodes.size();

    const Measurement m_build = measure(budget_ns, [&] {
      std::vector<net::Node> copy = nodes;
      const net::DiskGraph g = net::DiskGraph::build(std::move(copy));
      if (g.size() != n_nodes) std::abort();
    });
    const Measurement m_dynamic = measure(budget_ns, [&] {
      const net::DynamicDiskGraph d{std::vector<net::Node>(nodes)};
      if (d.size() != n_nodes) std::abort();
    });

    std::cout << "  graph build n=" << n_nodes << ": "
              << m_build.ns_per_op / 1e6 << " ms ("
              << m_build.ns_per_op / static_cast<double>(n_nodes)
              << " ns/node); DynamicDiskGraph: "
              << m_dynamic.ns_per_op / 1e6 << " ms\n";

    j.open_obj();
    j.field("nodes", static_cast<std::uint64_t>(n_nodes));
    j.field("build_ns", m_build.ns_per_op);
    j.field("ns_per_node",
            m_build.ns_per_op / static_cast<double>(n_nodes));
    j.field("allocs_per_build", m_build.allocs_per_op);
    j.field("dynamic_build_ns", m_dynamic.ns_per_op);
    j.field("dynamic_ns_per_node",
            m_dynamic.ns_per_op / static_cast<double>(n_nodes));
    j.close_obj();
  }
  j.close_arr();
  }

  // --- 4. batched all-relay thread scaling ---------------------------------
  // The same ~1000-node sweep as section 2, at several pool sizes.  One
  // sweep takes a few milliseconds, so a single timing is at the mercy of
  // the host: each pool size is reported as the median of kSweeps timed
  // sweeps, taken in rounds that visit every pool size once, so drift in
  // host speed lands on all of them alike.  On a single-core runner the >1
  // configurations measure oversubscription overhead rather than speedup;
  // the speedup_vs_1_thread field makes that legible either way.
  if (run_section("batch_all_relays_threads")) {
    net::DeploymentParams p;
    p.model = net::RadiusModel::kUniform;
    p.target_avg_degree = 36.8;
    sim::Xoshiro256 rng(0x5EEDC0DEULL);
    const net::DiskGraph g = net::generate_graph(p, rng);

    // Plain arrays: the replaced global operator new/delete pair confuses
    // GCC's -Wmismatched-new-delete for vectors of local types at -O2.
    std::size_t counts[4] = {0, 0, 0, 0};
    std::size_t n_counts = 0;
    if (quick) {
      counts[n_counts++] = 1;
      counts[n_counts++] = pool.size() > 1 ? pool.size() : 2;
    } else {
      counts[n_counts++] = 1;
      counts[n_counts++] = 2;
      counts[n_counts++] = 4;
      if (pool.size() > 4) counts[n_counts++] = pool.size();
    }
    const std::size_t kSweeps = quick ? 21 : 51;
    std::unique_ptr<sim::ThreadPool> pools[4];
    std::vector<double> sweep_ns[4];
    for (std::size_t ci = 0; ci < n_counts; ++ci) {
      pools[ci] = std::make_unique<sim::ThreadPool>(counts[ci]);
      sweep_ns[ci].reserve(kSweeps);
    }
    const auto sweep = [&g](sim::ThreadPool& pool_t) {
      const bcast::AllSkylines all = bcast::compute_all_skylines(g, pool_t);
      if (all.size() != g.size()) std::abort();
    };
    for (std::size_t ci = 0; ci < n_counts; ++ci) sweep(*pools[ci]);  // warm
    for (std::size_t r = 0; r < kSweeps; ++r) {
      for (std::size_t ci = 0; ci < n_counts; ++ci) {
        const auto t0 = std::chrono::steady_clock::now();
        sweep(*pools[ci]);
        const auto t1 = std::chrono::steady_clock::now();
        sweep_ns[ci].push_back(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
      }
    }

    j.open_arr("batch_all_relays_threads");
    double ns_1thread = 0.0;
    for (std::size_t ci = 0; ci < n_counts; ++ci) {
      const std::size_t t = counts[ci];
      std::vector<double>& ns = sweep_ns[ci];
      std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
      const double median_ns = ns[ns.size() / 2];
      if (ns_1thread == 0.0) ns_1thread = median_ns;  // counts starts at 1

      std::cout << "  all-relays threads=" << t << ": " << median_ns / 1e6
                << " ms median of " << kSweeps << " ("
                << ns_1thread / median_ns << "x vs 1 thread)\n";

      j.open_obj();
      j.field("threads", static_cast<std::uint64_t>(t));
      j.field("sweeps", static_cast<std::uint64_t>(kSweeps));
      j.field("batch_ns", median_ns);
      j.field("batch_relays_per_s",
              static_cast<double>(g.size()) * 1e9 / median_ns);
      j.field("speedup_vs_1_thread", ns_1thread / median_ns);
      j.close_obj();
    }
    j.close_arr();
  }

  // --- 5. mobility steady state: incremental vs full rebuild ---------------
  // Random-waypoint motion on the ~1000-node heterogeneous deployment.  Each
  // step is maintained twice: incrementally (DynamicDiskGraph::apply with
  // the mover hint + SkylineCache::update) and from scratch (DiskGraph::
  // build + compute_all_skylines on the same pool).  Every 10th step the
  // cached forwarding sets are compared with the rebuild and the bench
  // aborts on any mismatch — the speedups below are for *bit-identical*
  // output.  Dirty-relay counts are reported so the speedup can be read
  // against how much of the network each regime actually perturbs, and the
  // graph layer of each side (apply_ns_per_step, build_ns_per_step) so the
  // race between the incremental step and a rebuild reads layer by layer.
  if (run_section("mobility_steady_state")) {
    struct MobilityRegime {
      const char* name;
      net::WaypointParams wp;
    };
    MobilityRegime regimes[4];
    regimes[0].name = "quasi_static";
    regimes[0].wp.v_min = 0.02;
    regimes[0].wp.v_max = 0.1;
    regimes[0].wp.pause = 2000.0;
    regimes[0].wp.max_leg = 1.0;
    regimes[0].wp.steady_state_init = true;
    regimes[1].name = "low_speed";
    regimes[1].wp.v_min = 0.02;
    regimes[1].wp.v_max = 0.1;
    regimes[1].wp.pause = 2.0;
    regimes[1].wp.steady_state_init = true;
    regimes[2].name = "moderate";
    regimes[2].wp.v_min = 0.1;
    regimes[2].wp.v_max = 0.5;
    regimes[2].wp.pause = 2.0;
    regimes[3].name = "high_speed";
    regimes[3].wp.v_min = 0.5;
    regimes[3].wp.v_max = 2.0;
    regimes[3].wp.pause = 0.0;

    // The same 100 steps in --quick runs: check_bench.py gates a quick
    // run's speedup_vs_full_rebuild against full-run history, and over 30
    // steps one host stall swung the ratio by up to 30% (4-core x86-64:
    // 30-step runs read 1.02-1.56x where 100-step runs read 1.19-1.42x).
    const int warmup_steps = 20;
    const int steps = 100;
    using clock = std::chrono::steady_clock;

    j.open_arr("mobility_steady_state");
    for (const MobilityRegime& regime : regimes) {
      net::DeploymentParams p;
      p.model = net::RadiusModel::kUniform;
      p.target_avg_degree = 36.8;
      sim::Xoshiro256 rng(0x5EEDC0DEULL);
      net::MobileNetwork mobile(p, regime.wp, rng);
      net::DynamicDiskGraph dyn{std::vector<net::Node>(
          mobile.nodes().begin(), mobile.nodes().end())};
      bcast::SkylineCache cache(dyn, pool);

      for (int t = 0; t < warmup_steps; ++t) {
        mobile.step(1.0, rng);
        cache.update(dyn.apply(mobile.nodes(), mobile.moved_last_step()));
      }

      const std::uint64_t dirty0 = cache.recompute_count();
      std::uint64_t moved_total = 0;
      std::uint64_t flips_total = 0;
      double inc_ns = 0.0;
      double apply_ns = 0.0;
      double full_ns = 0.0;
      double build_ns = 0.0;
      std::uint64_t inc_allocs = 0;
      const auto ns = [](clock::duration d) {
        return static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
      };
      for (int t = 0; t < steps; ++t) {
        mobile.step(1.0, rng);

        const std::uint64_t a0 = allocations();
        const auto t0 = clock::now();
        const auto& delta =
            dyn.apply(mobile.nodes(), mobile.moved_last_step());
        const auto t_applied = clock::now();
        cache.update(delta);
        const auto t1 = clock::now();
        inc_ns += ns(t1 - t0);
        apply_ns += ns(t_applied - t0);
        inc_allocs += allocations() - a0;
        moved_total += delta.moved.size();
        flips_total += delta.edges_added + delta.edges_removed;

        const auto t2 = clock::now();
        std::vector<net::Node> copy(mobile.nodes().begin(),
                                    mobile.nodes().end());
        const auto t_copied = clock::now();
        const net::DiskGraph fresh_g = net::DiskGraph::build(std::move(copy));
        const auto t_built = clock::now();
        const bcast::AllSkylines fresh =
            bcast::compute_all_skylines(fresh_g, pool);
        const auto t3 = clock::now();
        full_ns += ns(t3 - t2);
        build_ns += ns(t_built - t_copied);

        if (t % 10 == 0) {
          for (net::NodeId u = 0; u < dyn.size(); ++u) {
            const auto got = cache.forwarding_set(u);
            const auto want = fresh.forwarding_set(u);
            if (!std::equal(got.begin(), got.end(), want.begin(),
                            want.end())) {
              std::cerr << "FATAL: cached skyline diverged from rebuild ("
                        << regime.name << ", step " << t << ", relay " << u
                        << ")\n";
              std::abort();
            }
          }
        }
      }

      const double d_steps = static_cast<double>(steps);
      const double avg_dirty =
          static_cast<double>(cache.recompute_count() - dirty0) / d_steps;
      const double speedup = full_ns / inc_ns;
      std::cout << "  mobility " << regime.name << ": incremental "
                << inc_ns / d_steps / 1e6 << " ms/step (apply "
                << apply_ns / d_steps / 1e6 << ") vs rebuild "
                << full_ns / d_steps / 1e6 << " ms/step (build "
                << build_ns / d_steps / 1e6 << ") => " << speedup
                << "x (avg " << avg_dirty << " dirty relays, "
                << static_cast<double>(moved_total) / d_steps
                << " movers/step)\n";

      j.open_obj();
      j.field("regime", std::string(regime.name));
      j.field("nodes", static_cast<std::uint64_t>(dyn.size()));
      j.field("steps", static_cast<std::uint64_t>(steps));
      j.field("v_min", regime.wp.v_min);
      j.field("v_max", regime.wp.v_max);
      j.field("pause", regime.wp.pause);
      j.field("avg_moved_per_step",
              static_cast<double>(moved_total) / d_steps);
      j.field("avg_edge_flips_per_step",
              static_cast<double>(flips_total) / d_steps);
      j.field("avg_dirty_relays_per_step", avg_dirty);
      j.field("incremental_ns_per_step", inc_ns / d_steps);
      j.field("apply_ns_per_step", apply_ns / d_steps);
      j.field("incremental_allocs_per_step",
              static_cast<double>(inc_allocs) / d_steps);
      j.field("full_rebuild_ns_per_step", full_ns / d_steps);
      j.field("build_ns_per_step", build_ns / d_steps);
      j.field("speedup_vs_full_rebuild", speedup);
      j.field("compactions", cache.compaction_count());
      j.close_obj();
    }
    j.close_arr();
  }

  // --- 6. sharded mobility: tiled engine scaling ---------------------------
  // Constant-density deployments (the ~1000-node paper setup scaled up by
  // area) under moderate random-waypoint motion, maintained by the tiled
  // ShardedEngine + ShardedSkylineCache at shard counts {1, 2, 4, 8}; each
  // shard count gets its own worker pool of that many threads, so
  // speedup_vs_1_shard is the end-to-end decomposition + threading gain
  // (on a single-core host it measures oversubscription instead — read it
  // against provenance.hardware_concurrency).  Bit-identity: an untimed
  // reference pass replays the identical trajectory (same seed) on a
  // single-engine SkylineCache and records a stride sample of forwarding
  // sets every other step; every sharded run is compared against the
  // recording and the bench aborts on any divergence.
  if (run_section("sharded_mobility")) {
    const std::vector<std::size_t> node_targets =
        quick ? std::vector<std::size_t>{10000}
              : std::vector<std::size_t>{10000, 100000, 1000000};
    constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};
    constexpr int kCheckEvery = 2;

    j.open_arr("sharded_mobility");
    for (const std::size_t target : node_targets) {
      net::DeploymentParams p;
      p.model = net::RadiusModel::kUniform;
      p.target_avg_degree = 36.8;
      p.side = 12.5 * std::sqrt(static_cast<double>(target) / 1000.0);
      net::WaypointParams wp;  // moderate regime
      wp.v_min = 0.1;
      wp.v_max = 0.5;
      wp.pause = 2.0;
      const std::uint64_t seed = 0x5EEDC0DEULL + target;
      const int steps = target >= 1000000 ? 3 : (target >= 100000 ? 6 : 10);

      // Untimed reference pass: single engine, same trajectory; record a
      // stride sample of forwarding sets at every check step.
      std::vector<std::vector<std::vector<net::NodeId>>> recorded;
      std::size_t n_nodes = 0;
      std::size_t stride = 1;
      {
        sim::Xoshiro256 rng(seed);
        net::MobileNetwork mobile(p, wp, rng);
        net::DynamicDiskGraph dyn{std::vector<net::Node>(
            mobile.nodes().begin(), mobile.nodes().end())};
        bcast::SkylineCache ref(dyn, pool);
        n_nodes = dyn.size();
        stride = std::max<std::size_t>(1, n_nodes / 2048);
        for (int t = 0; t < steps; ++t) {
          mobile.step(1.0, rng);
          ref.update(dyn.apply(mobile.nodes(), mobile.moved_last_step()));
          if (t % kCheckEvery != 0) continue;
          std::vector<std::vector<net::NodeId>> sample;
          for (std::size_t u = 0; u < n_nodes; u += stride) {
            const auto set =
                ref.forwarding_set(static_cast<net::NodeId>(u));
            sample.emplace_back(set.begin(), set.end());
          }
          recorded.push_back(std::move(sample));
        }
      }

      double ns_1shard = 0.0;
      for (const std::size_t shards : kShardCounts) {
        sim::Xoshiro256 rng(seed);
        net::MobileNetwork mobile(p, wp, rng);
        sim::ThreadPool pool_s(shards);
        net::ShardedEngine::Config cfg;
        cfg.shards = shards;
        cfg.deployment = {{0.0, 0.0}, {p.side, p.side}};
        net::ShardedEngine engine{
            std::vector<net::Node>(mobile.nodes().begin(),
                                   mobile.nodes().end()),
            pool_s, cfg};
        bcast::ShardedSkylineCache cache(engine);

        using clock = std::chrono::steady_clock;
        const std::uint64_t recomputes0 = cache.recompute_count();
        double step_ns = 0.0;
        std::size_t checked = 0;
        for (int t = 0; t < steps; ++t) {
          mobile.step(1.0, rng);
          const auto t0 = clock::now();
          cache.step(mobile.nodes(), mobile.moved_last_step());
          const auto t1 = clock::now();
          step_ns += static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count());
          if (t % kCheckEvery != 0) continue;
          const auto& sample = recorded[checked++];
          std::size_t si = 0;
          for (std::size_t u = 0; u < n_nodes; u += stride, ++si) {
            const auto got = cache.forwarding_set(static_cast<net::NodeId>(u));
            const auto& want = sample[si];
            if (!std::equal(got.begin(), got.end(), want.begin(),
                            want.end())) {
              std::cerr << "FATAL: sharded cache diverged from single "
                           "engine (nodes " << n_nodes << ", shards "
                        << shards << ", step " << t << ", relay " << u
                        << ")\n";
              std::abort();
            }
          }
        }

        const double d_steps = static_cast<double>(steps);
        const std::uint64_t recomputed =
            cache.recompute_count() - recomputes0;
        const double relays_per_s =
            static_cast<double>(recomputed) * 1e9 / step_ns;
        if (shards == 1) ns_1shard = step_ns;
        const double speedup = ns_1shard / step_ns;

        std::cout << "  sharded n=" << n_nodes << " shards=" << shards
                  << " (" << engine.rows() << "x" << engine.cols() << "): "
                  << step_ns / d_steps / 1e6 << " ms/step, "
                  << relays_per_s << " relays/s, halo "
                  << engine.halo_fraction() << " => " << speedup
                  << "x vs 1 shard\n";

        j.open_obj();
        j.field("nodes", static_cast<std::uint64_t>(n_nodes));
        j.field("shards", static_cast<std::uint64_t>(shards));
        j.field("rows", static_cast<std::uint64_t>(engine.rows()));
        j.field("cols", static_cast<std::uint64_t>(engine.cols()));
        j.field("steps", static_cast<std::uint64_t>(steps));
        j.field("step_ns", step_ns / d_steps);
        j.field("recomputed_relays_per_step",
                static_cast<double>(recomputed) / d_steps);
        j.field("relays_per_s", relays_per_s);
        j.field("halo_fraction", engine.halo_fraction());
        j.field("migrations_per_step",
                static_cast<double>(engine.migration_count()) / d_steps);
        j.field("speedup_vs_1_shard", speedup);
        j.field("identity_checks", static_cast<std::uint64_t>(checked));
        j.field("identity_relays_per_check",
                static_cast<std::uint64_t>((n_nodes + stride - 1) / stride));
        j.close_obj();
      }
    }
    j.close_arr();
  }

  j.close_obj();
  out << "\n";
  out.close();
  std::cout << "[OK] wrote " << out_path << "\n";

  obs::blackbox_heartbeat(++section_no);  // final frame: end-of-run state
  return outputs.finish() ? 0 : 1;
}
