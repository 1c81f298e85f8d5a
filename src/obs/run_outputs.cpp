#include "obs/run_outputs.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>
#include <system_error>

#include "obs/blackbox.hpp"
#include "obs/event_log.hpp"
#include "obs/export.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace mldcs::obs {

std::optional<std::uint64_t> parse_decimal(std::string_view text,
                                           std::uint64_t max) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || stop != end || value > max) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> parse_positive_real(std::string_view text) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || stop != end ||
      !std::isfinite(value) || !(value > 0.0)) {
    return std::nullopt;
  }
  return value;
}

bool RunOutputs::parse(int& argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    std::string* path = nullptr;
    if (flag == "--trace") path = &trace_path_;
    if (flag == "--telemetry") path = &telemetry_path_;
    if (flag == "--events") path = &events_path_;
    if (flag == "--blackbox") path = &blackbox_path_;
    if (flag == "--profile") path = &profile_path_;
    if (path == nullptr && flag != "--introspect") {
      argv[kept++] = argv[i];
      continue;
    }
    if (i + 1 == argc) {
      err_ << "error: " << flag << " expects a value\n";
      return false;
    }
    const char* const value = argv[++i];
    if (path != nullptr) {
      *path = value;
      continue;
    }
    const auto port = parse_decimal(value, UINT16_MAX);
    if (!port) {
      err_ << "error: --introspect expects a port in [0, 65535] (got '"
           << value << "')\n";
      return false;
    }
    port_ = static_cast<std::uint16_t>(*port);
  }
  argc = kept;
  return true;
}

bool RunOutputs::start() {
  if (!trace_path_.empty()) trace_start();
  if (!events_path_.empty() || !blackbox_path_.empty() || port_) {
    events_start();
  }
  if (!blackbox_path_.empty()) {
    BlackBoxConfig config;
    config.path = blackbox_path_.c_str();
    if (!blackbox_arm(config)) {
      err_ << "error: cannot arm blackbox at " << blackbox_path_ << "\n";
      return false;
    }
    out_ << "blackbox armed: " << blackbox_path_
         << " (dumps on SIGSEGV/SIGABRT/SIGBUS, watchdog alarm, exit)\n";
  }
  if (!profile_path_.empty()) {
    const ProfilerConfig config;
    if (!profiler_arm(config)) {
      err_ << "error: cannot arm profiler\n";
      return false;
    }
    out_ << "profiler armed: " << config.hz
         << " Hz per-thread CPU sampling, folded profile to " << profile_path_
         << " at exit\n";
  }
  if (port_) {
    IntrospectServer::Options options;
    options.port = *port_;
    std::string error;
    if (!server_.start(options, &error)) {
      err_ << "error: cannot start introspection server: " << error << "\n";
      return false;
    }
    // Flushed: with --introspect 0 this line is the only place the chosen
    // port shows, and a redirected stdout would otherwise hold it back.
    out_ << "introspection server listening on " << options.host << ':'
         << server_.port()
         << " (/metrics /snapshot.json /events /shards /profile /healthz)"
         << std::endl;
  }
  return true;
}

std::string RunOutputs::introspect_note() const {
  return server_.running() ? "on:" + std::to_string(server_.port()) : "off";
}

std::string RunOutputs::blackbox_note() const {
  return blackbox_path_.empty() ? "off" : blackbox_path_;
}

std::string RunOutputs::profile_note() const {
  return profile_path_.empty() ? "off" : profile_path_;
}

bool RunOutputs::finish() {
  bool ok = true;
  const auto write = [this, &ok](const std::string& path, const char* what,
                                 const auto& body) {
    std::ofstream file(path);
    if (file) {
      body(file);
      file.close();
    }
    if (!file) {
      err_ << "error: cannot write " << what << " to " << path << "\n";
      ok = false;
      return;
    }
    out_ << "wrote " << what << " to " << path << "\n";
  };
  if (server_.running()) {
    out_ << "introspection server served " << server_.requests()
         << " request(s)\n";
    server_.stop();
  }
  if (!blackbox_path_.empty()) {
    // A clean exit leaves the same report a crash would have, so
    // pipelines validate one artifact either way.
    if (blackbox_dump_now("exit")) {
      out_ << "wrote blackbox report to " << blackbox_path_ << " ("
           << blackbox_heartbeat_count() << " heartbeats)\n";
    } else {
      err_ << "error: cannot write blackbox report to " << blackbox_path_
           << "\n";
      ok = false;
    }
    blackbox_disarm();
  }
  if (!profile_path_.empty()) {
    profiler_disarm();  // joins the drain: the report below is final
    const ProfileReport report = profiler_report();
    write(profile_path_, "folded profile",
          [&report](std::ostream& os) { write_profile_folded(os, report); });
  }
  if (!trace_path_.empty()) {
    trace_stop();
    write(trace_path_, "trace", write_trace_json);
  }
  if (!telemetry_path_.empty()) {
    write(telemetry_path_, "telemetry snapshot",
          [](std::ostream& os) { write_snapshot_json(os, registry()); });
  }
  if (!events_path_.empty()) {
    events_stop();
    write(events_path_, "event log", write_events_jsonl);
  }
  return ok;
}

}  // namespace mldcs::obs
