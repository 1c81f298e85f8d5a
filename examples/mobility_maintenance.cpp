/// Mobility maintenance: the Section 5.1.1 argument in action.
///
/// Nodes move by a random-waypoint-style step each beacon period.  Every
/// period, all nodes re-beacon; 1-hop schemes (skyline) are consistent
/// after ONE period, while 2-hop schemes need TWO (a position change
/// propagates to neighbors-of-neighbors only on the second beacon).  The
/// example measures (a) cumulative beacon bytes for 1-hop vs 2-hop
/// maintenance, and (b) how often a greedy forwarding set computed from
/// one-period-stale 2-hop data fails to dominate the true 2-hop set,
/// versus the skyline set which is always computed from fresh 1-hop data.
///
/// The topology itself is maintained *incrementally*: a DynamicDiskGraph
/// re-buckets only the nodes that moved and diffs only their links, and a
/// SkylineCache recomputes only the relays whose 1-hop neighborhood
/// actually changed — while staying bit-identical to a from-scratch sweep
/// (that is the whole point of the 1-hop locality argument).  The example
/// reports how many relays each period actually dirtied, and times the
/// incremental step against a full rebuild.
///
/// Usage: mobility_maintenance [periods] [speed] [seed]
///                              [--trace PATH] [--telemetry PATH]
///                              [--events PATH] [--watchdog K,M]
///                              [--shards N] [--introspect PORT]
///                              [--blackbox PATH] [--profile PATH]
///
/// --trace records the run as chrome://tracing trace events, one span per
/// obs::Scope phase (graph_apply / cache_update / cache_recompute per
/// period; engine_step / shard_step / halo_exchange too with --shards);
/// --telemetry dumps the process-wide mldcs-telemetry-v1 registry
/// snapshot — dirty-relay histograms, slot overflows, compactions, pool
/// busy time (docs/OBSERVABILITY.md).
///
/// --events records the run in the flight recorder (kStep / kCacheUpdate
/// causal chain per period) and writes the mldcs-events-v1 JSONL to PATH.
/// --watchdog K,M audits the skyline cache online: every K periods, M
/// randomly sampled relays are recomputed from scratch and compared
/// against the cached forwarding sets (obs/watchdog.hpp); the verdict is
/// printed at the end and any mismatch makes the run exit 1.
///
/// --shards N maintains the topology through the spatially sharded engine
/// (net::ShardedEngine + bcast::ShardedSkylineCache) instead of the single
/// DynamicDiskGraph — bit-identical forwarding sets, and the per-shard
/// load table becomes visible to the observability surfaces below.
///
/// --introspect PORT serves live introspection on 127.0.0.1:PORT (0 picks
/// an ephemeral port, printed at startup): /metrics, /snapshot.json,
/// /events?tail=N, /shards, /healthz (poll with curl, Prometheus, or
/// tools/mldcs_top.py).  --blackbox PATH arms the flight recorder: one
/// heartbeat frame per period into a crash-safe ring, dumped to PATH as a
/// mldcs-blackbox-v1 report on SIGSEGV/SIGABRT/SIGBUS, on a watchdog
/// mismatch, and at clean exit (validate with tools/summarize_trace.py
/// --blackbox PATH).
///
/// --profile PATH arms the obs/profiler.hpp sampling profiler at 97 Hz
/// for the whole run and writes the collapsed-stack profile
/// (mldcs-profile-v1 folded text; feed to flamegraph.pl / speedscope, or
/// tools/summarize_trace.py --profile) at exit.  A crash while armed
/// appends the phase breakdown to the blackbox report.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "broadcast/all_skylines.hpp"
#include "broadcast/cache_watchdog.hpp"
#include "broadcast/forwarding.hpp"
#include "broadcast/sharded_cache.hpp"
#include "broadcast/skyline_cache.hpp"
#include "net/dynamic_disk_graph.hpp"
#include "net/hello.hpp"
#include "net/mobility.hpp"
#include "net/sharded_engine.hpp"
#include "net/topology.hpp"
#include "obs/blackbox.hpp"
#include "obs/event_log.hpp"
#include "obs/export.hpp"
#include "obs/introspect.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"
#include "sim/table.hpp"
#include "sim/thread_pool.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mldcs;

  // Flags may appear anywhere; whatever remains is the positional
  // [periods] [speed] [seed] triple.
  std::string trace_path;
  std::string telemetry_path;
  std::string events_path;
  std::string blackbox_path;
  std::string profile_path;
  int introspect_port = -1;  // -1: server off; 0: ephemeral
  std::size_t shards = 1;
  std::uint32_t wd_period = 0;  // 0: watchdog off
  std::uint32_t wd_samples = 8;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--telemetry" && i + 1 < argc) {
      telemetry_path = argv[++i];
    } else if (arg == "--events" && i + 1 < argc) {
      events_path = argv[++i];
    } else if (arg == "--blackbox" && i + 1 < argc) {
      blackbox_path = argv[++i];
    } else if (arg == "--profile" && i + 1 < argc) {
      profile_path = argv[++i];
    } else if (arg == "--introspect" && i + 1 < argc) {
      introspect_port = std::atoi(argv[++i]);
      if (introspect_port < 0 || introspect_port > 65535) {
        std::cerr << "error: --introspect expects a port in [0, 65535]\n";
        return 2;
      }
    } else if (arg == "--shards" && i + 1 < argc) {
      const int n = std::atoi(argv[++i]);
      if (n < 1) {
        std::cerr << "error: --shards expects N >= 1\n";
        return 2;
      }
      shards = static_cast<std::size_t>(n);
    } else if (arg == "--watchdog" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t comma = spec.find(',');
      wd_period = static_cast<std::uint32_t>(
          std::atoi(spec.substr(0, comma).c_str()));
      if (comma != std::string::npos) {
        wd_samples = static_cast<std::uint32_t>(
            std::atoi(spec.substr(comma + 1).c_str()));
      }
      if (wd_period == 0 || wd_samples == 0) {
        std::cerr << "error: --watchdog expects K,M with K,M >= 1 (got '"
                  << spec << "')\n";
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "usage: mobility_maintenance [periods] [speed] [seed]\n"
                   "                            [--trace PATH] "
                   "[--telemetry PATH]\n"
                   "                            [--events PATH] "
                   "[--watchdog K,M]\n"
                   "                            [--shards N] "
                   "[--introspect PORT]\n"
                   "                            [--blackbox PATH] "
                   "[--profile PATH]\n";
      return 2;
    } else {
      pos.push_back(arg);
    }
  }
  const int periods = pos.size() > 0 ? std::atoi(pos[0].c_str()) : 20;
  const double speed =
      pos.size() > 1 ? std::atof(pos[1].c_str()) : 0.25;  // per period
  const std::uint64_t seed =
      pos.size() > 2 ? static_cast<std::uint64_t>(std::atoll(pos[2].c_str()))
                     : 11;
  if (!trace_path.empty()) obs::trace_start();
  // The flight recorder and the /events endpoint both read the event log;
  // arm it whenever any consumer is on, not just --events.
  if (!events_path.empty() || !blackbox_path.empty() || introspect_port >= 0) {
    obs::events_start();
  }
  if (!blackbox_path.empty()) {
    obs::BlackBoxConfig bb;
    bb.path = blackbox_path.c_str();
    if (!obs::blackbox_arm(bb)) {
      std::cerr << "error: cannot arm blackbox at " << blackbox_path << "\n";
      return 1;
    }
    std::cout << "blackbox armed: " << blackbox_path
              << " (dumps on SIGSEGV/SIGABRT/SIGBUS, watchdog alarm, "
                 "exit)\n";
  }
  if (!profile_path.empty()) {
    if (!obs::profiler_arm(obs::ProfilerConfig{})) {
      std::cerr << "error: cannot arm profiler\n";
      return 1;
    }
    std::cout << "profiler armed: 97 Hz per-thread CPU sampling, folded "
                 "profile to "
              << profile_path << " at exit\n";
  }

  net::DeploymentParams p;
  p.model = net::RadiusModel::kUniform;
  p.target_avg_degree = 10;
  net::WaypointParams wp;
  wp.v_min = speed * 0.2;
  wp.v_max = speed;
  wp.pause = 1.0;
  sim::Xoshiro256 rng(seed);
  net::MobileNetwork mobile(p, wp, rng);

  sim::ThreadPool& pool = sim::default_pool();
  // Maintenance stack: the single incremental engine, or the spatially
  // sharded one behind --shards (same forwarding sets, same audit hooks).
  std::optional<net::DynamicDiskGraph> dyn;
  std::optional<bcast::SkylineCache> cache;
  std::optional<net::ShardedEngine> engine;
  std::optional<bcast::ShardedSkylineCache> sharded_cache;
  const bool sharded = shards > 1;
  if (sharded) {
    net::ShardedEngine::Config cfg;
    cfg.shards = shards;
    cfg.deployment = {{0.0, 0.0}, {p.side, p.side}};
    engine.emplace(
        std::vector<net::Node>(mobile.nodes().begin(), mobile.nodes().end()),
        pool, cfg);
    sharded_cache.emplace(*engine);
  } else {
    dyn.emplace(
        std::vector<net::Node>(mobile.nodes().begin(), mobile.nodes().end()));
    cache.emplace(*dyn, pool);
  }
  std::optional<obs::ConsistencyWatchdog> watchdog;
  if (wd_period > 0) {
    const obs::ConsistencyWatchdog::Config wd_cfg{.period = wd_period,
                                                  .samples = wd_samples};
    watchdog.emplace(
        sharded ? bcast::make_cache_watchdog(*sharded_cache, wd_cfg)
                : bcast::make_cache_watchdog(*cache, wd_cfg));
  }

  // /healthz mirrors the latest watchdog verdict through an atomic (the
  // server thread must not read watchdog state the main loop is writing).
  std::atomic<bool> healthy{true};
  obs::IntrospectServer introspect;
  if (introspect_port >= 0) {
    obs::IntrospectServer::Options opt;
    opt.port = static_cast<std::uint16_t>(introspect_port);
    std::string err;
    if (!introspect.start(opt, &err)) {
      std::cerr << "error: cannot start introspection server: " << err
                << "\n";
      return 1;
    }
    introspect.set_health([&healthy](std::string&) {
      return healthy.load(std::memory_order_relaxed);
    });
    // Flushed: with --introspect 0 this line is the only place the chosen
    // port shows, and a redirected stdout would otherwise hold it back.
    std::cout << "introspection server listening on 127.0.0.1:"
              << introspect.port()
              << " (/metrics /snapshot.json /events /shards /healthz)"
              << std::endl;
  }

  std::uint64_t bytes_1hop = 0;
  std::uint64_t bytes_2hop = 0;
  int stale_failures = 0;
  int checks = 0;
  std::uint64_t edge_flips = 0;
  double incremental_s = 0.0;
  double rebuild_s = 0.0;

  // The 2-hop view a node holds is what its neighbors advertised LAST
  // period (their own 1-hop lists lag one period behind reality).
  net::DiskGraph prev = mobile.snapshot();

  for (int t = 0; t < periods; ++t) {
    mobile.step(1.0, rng);  // one beacon period of random-waypoint motion

    // Incremental maintenance: diff the moved nodes' links, recompute only
    // the dirtied relays.
    const auto t_inc = std::chrono::steady_clock::now();
    if (sharded) {
      sharded_cache->step(mobile.nodes(), mobile.moved_last_step());
      if (watchdog) {
        watchdog->on_step(sharded_cache->last_update_event());
      }
    } else {
      const auto& delta = dyn->apply(mobile.nodes(), mobile.moved_last_step());
      cache->update(delta);
      if (watchdog) watchdog->on_step(cache->last_update_event());
      edge_flips += delta.edges_added + delta.edges_removed;
    }
    if (watchdog) {
      healthy.store(watchdog->clean(), std::memory_order_relaxed);
    }
    incremental_s += seconds_since(t_inc);
    obs::blackbox_heartbeat(static_cast<std::uint64_t>(t) + 1);

    // What a 1-hop-oblivious implementation pays every period instead.
    const auto t_full = std::chrono::steady_clock::now();
    const net::DiskGraph now = mobile.snapshot();
    const bcast::AllSkylines full = bcast::compute_all_skylines(now, pool);
    rebuild_s += seconds_since(t_full);
    static_cast<void>(full);

    // Beacon cost this period.
    bytes_1hop += net::hello1_cost(now).bytes;
    bytes_2hop += net::hello2_cost(now).bytes;

    // Staleness check at the source: greedy computed with last period's
    // 2-hop knowledge vs today's true 2-hop neighborhood.
    const bcast::LocalView fresh = bcast::local_view(now, 0);
    const bcast::LocalView stale = bcast::local_view(prev, 0);
    if (!fresh.two_hop.empty() && !stale.one_hop.empty()) {
      ++checks;
      const auto greedy_stale = bcast::greedy_forwarding_set(prev, stale);
      bool dominates = true;
      for (net::NodeId w : fresh.two_hop) {
        bool covered = false;
        for (net::NodeId v : greedy_stale) {
          covered = covered || now.linked(v, w);
        }
        if (!covered) {
          dominates = false;
          break;
        }
      }
      if (!dominates) ++stale_failures;
    }
    prev = now;
  }

  sim::Table table({"metric", "1-hop (skyline)", "2-hop (greedy/optimal)"});
  table.add_row({"beacon bytes over " + std::to_string(periods) + " periods",
                 std::to_string(bytes_1hop), std::to_string(bytes_2hop)});
  table.add_row({"bytes ratio", "1.00",
                 sim::format_double(static_cast<double>(bytes_2hop) /
                                        static_cast<double>(bytes_1hop),
                                    2)});
  table.add_row({"stale-knowledge 2-hop coverage failures",
                 "0 (always fresh: 1 period suffices)",
                 std::to_string(stale_failures) + " / " +
                     std::to_string(checks) + " periods"});
  table.print(std::cout);

  const std::size_t node_count = mobile.nodes().size();
  const std::uint64_t recomputes =
      sharded ? sharded_cache->recompute_count() : cache->recompute_count();
  std::uint64_t compactions = 0;
  if (sharded) {
    for (std::size_t s = 0; s < engine->shard_count(); ++s) {
      compactions += sharded_cache->shard(s).compaction_count();
    }
  } else {
    compactions = cache->compaction_count();
  }
  const double n = static_cast<double>(node_count);
  const double avg_dirty =
      periods > 0 ? static_cast<double>(recomputes) /
                        static_cast<double>(periods)
                  : 0.0;
  std::cout << "\nincremental maintenance over " << periods << " periods ("
            << node_count << " nodes"
            << (sharded ? ", " + std::to_string(engine->shard_count()) +
                              " shards"
                        : std::string())
            << "):\n";
  if (!sharded) {
    std::cout << "  edge flips:          " << edge_flips << "\n";
  } else {
    std::cout << "  border migrations:   " << engine->migration_count()
              << "\n"
              << "  halo fraction:       "
              << sim::format_double(engine->halo_fraction(), 3) << "\n";
  }
  std::cout << "  relays recomputed:   " << recomputes << " (avg "
            << sim::format_double(avg_dirty, 1) << "/period, "
            << sim::format_double(100.0 * avg_dirty / n, 1) << "% of nodes)\n"
            << "  store compactions:   " << compactions << "\n"
            << "  incremental step:    "
            << sim::format_double(1e3 * incremental_s / periods, 3)
            << " ms/period\n"
            << "  full rebuild:        "
            << sim::format_double(1e3 * rebuild_s / periods, 3)
            << " ms/period ("
            << sim::format_double(rebuild_s / incremental_s, 2)
            << "x the incremental cost)\n";

  std::cout << "\ntotal distance travelled by all nodes: "
            << sim::format_double(mobile.total_distance(), 1) << " units over "
            << periods << " random-waypoint periods\n";
  std::cout << "\nreading: maintaining 2-hop views costs ~(1+degree)x the "
               "beacon bytes and still lags one period behind under "
               "mobility; the skyline scheme's 1-hop view is both cheaper "
               "and fresher (Section 5.1.1), and lets the topology + "
               "forwarding sets be patched incrementally instead of "
               "rebuilt.\n";

  if (watchdog) {
    std::cout << "\nwatchdog verdict (every " << wd_period << " periods, "
              << wd_samples << " relays/check):\n"
              << "  checks:              " << watchdog->checks() << "\n"
              << "  relays audited:      " << watchdog->sampled() << "\n"
              << "  mismatches:          " << watchdog->mismatches() << "\n";
    if (watchdog->clean()) {
      std::cout << "  verdict:             CLEAN (cache == from-scratch on "
                   "every sampled relay)\n";
    } else {
      std::cout << "  verdict:             INCONSISTENT (last at period "
                << watchdog->last_mismatch_step() << "; relays:";
      for (const auto u : watchdog->last_mismatched_relays()) {
        std::cout << ' ' << u;
      }
      std::cout << ")\n";
    }
  }

  if (introspect.running()) {
    std::cout << "\nintrospection server served " << introspect.requests()
              << " request(s)\n";
    introspect.stop();
  }
  if (obs::blackbox_armed()) {
    // A clean exit still leaves a report behind — the same file a crash
    // would have produced, so pipelines validate one artifact either way.
    if (obs::blackbox_dump_now("exit")) {
      std::cout << "wrote blackbox report to " << blackbox_path << " ("
                << obs::blackbox_heartbeat_count()
                << " heartbeats recorded; validate with "
                   "tools/summarize_trace.py --blackbox)\n";
    }
    obs::blackbox_disarm();
  }
  if (obs::profiler_armed()) {
    // Disarm joins the drain thread, so the report below is complete.
    obs::profiler_disarm();
    std::ofstream prof_out(profile_path);
    if (!prof_out) {
      std::cerr << "error: cannot open " << profile_path << " for writing\n";
      return 1;
    }
    const obs::ProfileReport report = obs::profiler_report();
    obs::write_profile_folded(prof_out, report);
    std::uint64_t named = 0;
    for (const auto& [phase, count] : report.phases) {
      if (phase != "none") named += count;
    }
    std::cout << "wrote folded profile to " << profile_path << " ("
              << report.total_samples << " samples, " << named
              << " phase-tagged; flamegraph.pl or speedscope it, or "
                 "tools/summarize_trace.py --profile)\n";
  }

  if (!events_path.empty()) {
    obs::events_stop();
    std::ofstream events_out(events_path);
    if (!events_out) {
      std::cerr << "error: cannot open " << events_path << " for writing\n";
      return 1;
    }
    obs::write_events_jsonl(events_out);
    std::cout << "\nwrote event log to " << events_path
              << " (validate/report with tools/mldcs_report.py)\n";
  }

  if (!trace_path.empty()) {
    obs::trace_stop();
    std::ofstream trace_out(trace_path);
    if (!trace_out) {
      std::cerr << "error: cannot open " << trace_path << " for writing\n";
      return 1;
    }
    obs::write_trace_json(trace_out);
    std::cout << "\nwrote trace to " << trace_path
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (!telemetry_path.empty()) {
    std::ofstream snap_out(telemetry_path);
    if (!snap_out) {
      std::cerr << "error: cannot open " << telemetry_path
                << " for writing\n";
      return 1;
    }
    obs::write_snapshot_json(snap_out, obs::registry());
    std::cout << "wrote telemetry snapshot to " << telemetry_path << "\n";
  }
  return watchdog && !watchdog->clean() ? 1 : 0;
}
