#pragma once

/// \file trace.hpp
/// chrome://tracing trace-event JSON of `obs::Scope` regions (scope.hpp;
/// open at chrome://tracing or https://ui.perfetto.dev).  Span names are
/// `phase_name(p)`, so a trace and a profile split time by one vocabulary.
/// Each thread's spans go to a lock-free single-producer ring of
/// kTraceRingSlots in its observability record, allocated when tracing is
/// armed; a full ring drops and counts (`otherData.dropped_spans`).

#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "obs/scope.hpp"

namespace mldcs::obs {

/// Spans one thread can buffer between flushes.
inline constexpr std::size_t kTraceRingSlots = std::size_t{1} << 15;

/// Begin collecting spans (clock epoch is set on the first start) and
/// give every live registered thread its span ring.
void trace_start();

/// Stop collecting.  Already-recorded spans stay buffered until
/// write_trace_json or trace_clear.
void trace_stop();

[[nodiscard]] bool trace_enabled() noexcept;

/// Write every buffered span as one chrome://tracing JSON document and
/// clear the buffers.  Collection state (started/stopped) is unchanged;
/// scopes still open on other threads flush with whatever has completed.
void write_trace_json(std::ostream& os);

/// Drop all buffered spans and the dropped-span count.
void trace_clear();

namespace detail {
/// Write `ns` >= 0 nanoseconds as exact decimal microseconds, the unit of
/// a span's ts and dur: "1234.567" for 1,234,567 ns.
void write_trace_us(std::ostream& os, std::int64_t ns);
}  // namespace detail

}  // namespace mldcs::obs
