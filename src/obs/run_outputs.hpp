#pragma once

/// \file run_outputs.hpp
/// The observability front end of a program run: the six flags
///
///   --trace PATH       chrome://tracing spans (obs/trace.hpp)
///   --telemetry PATH   mldcs-telemetry-v1 registry snapshot (obs/export.hpp)
///   --events PATH      mldcs-events-v1 flight recorder (obs/event_log.hpp)
///   --blackbox PATH    mldcs-blackbox-v1 crash and exit report
///                      (obs/blackbox.hpp)
///   --profile PATH     mldcs-profile-v1 folded profile, sampled at 97 Hz
///                      for the whole run (obs/profiler.hpp)
///   --introspect PORT  live server on 127.0.0.1:PORT, 0 for an ephemeral
///                      port (obs/introspect.hpp)
///
/// taken out of argv, armed in one order and flushed in one order, so
/// every program that accepts them behaves alike (docs/OBSERVABILITY.md,
/// "Getting the data out").
///
/// start() arms the trace; the event log, whenever --events, --blackbox or
/// --introspect reads it; the blackbox; the profiler; then the server,
/// whose port line is flushed so that a redirected log shows it while the
/// run is live.  finish() stops the server, writes the blackbox exit dump
/// (before the event file, so the dump's crash_dump event lands in it),
/// then the profile, the trace, the snapshot and the event log.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "obs/introspect.hpp"

namespace mldcs::obs {

/// A flag's number, parsed strictly: ASCII digits only (no sign, space or
/// suffix) and at most `max`.  nullopt for anything else.
[[nodiscard]] std::optional<std::uint64_t> parse_decimal(std::string_view text,
                                                         std::uint64_t max);

/// A real argument (a speed, a degree), parsed as strictly: the whole text
/// is one decimal or exponent-form number (no sign, space or suffix) whose
/// value is finite and > 0.  nullopt for anything else.
[[nodiscard]] std::optional<double> parse_positive_real(std::string_view text);

class RunOutputs {
 public:
  /// The six flags, for a program's usage text.
  static constexpr const char* kUsage =
      "[--trace PATH] [--telemetry PATH] [--events PATH]\n"
      "  [--blackbox PATH] [--profile PATH] [--introspect PORT]";

  /// Progress lines go to `out`, errors ("error: ...") to `err`.
  RunOutputs(std::ostream& out, std::ostream& err) : out_(out), err_(err) {}

  /// Take the six flags and their values out of argv[1, argc), keep every
  /// other argument in order, and update argc.  False on a flag with no
  /// value or a port that is not a decimal in [0, 65535].
  bool parse(int& argc, char** argv);

  /// Arm what the flags ask for, in the order above.  False on the first
  /// recorder that cannot be armed.
  bool start();

  /// Between start() and finish(), running when --introspect was given
  /// (a program installs its /healthz hook here).
  IntrospectServer& server() noexcept { return server_; }

  /// Provenance values: "on:PORT" and the blackbox and profile paths,
  /// each "off" when its flag was not given.
  [[nodiscard]] std::string introspect_note() const;
  [[nodiscard]] std::string blackbox_note() const;
  [[nodiscard]] std::string profile_note() const;

  /// Stop and flush in the order above.  Writes every artifact it can and
  /// names each path it cannot write; false if there was any.
  bool finish();

 private:
  std::ostream& out_;
  std::ostream& err_;
  std::string trace_path_;
  std::string telemetry_path_;
  std::string events_path_;
  std::string blackbox_path_;
  std::string profile_path_;
  std::optional<std::uint16_t> port_;
  IntrospectServer server_;
};

}  // namespace mldcs::obs
