#pragma once

/// \file export.hpp
/// Telemetry snapshot exporters: JSON (schema `mldcs-telemetry-v1`, the
/// format tools/summarize_trace.py --snapshot validates) and Prometheus
/// text exposition (for scraping a long-running process).
///
/// Both serialize a RegistrySnapshot, so they are consistent per metric
/// and cost nothing on the update path.

#include <iosfwd>

#include "obs/telemetry.hpp"

namespace mldcs::obs {

/// One JSON object:
///   {"schema":"mldcs-telemetry-v1","enabled":true,
///    "counters":{name:value,...},"gauges":{name:value,...},
///    "histograms":{name:{"count":..,"sum":..,"min":..,"max":..,"mean":..,
///                        "buckets":[{"lo":..,"hi":..,"count":..},...]},..}}
void write_snapshot_json(std::ostream& os, const Registry& r);

/// Prometheus text exposition format, one family per metric, names
/// prefixed `mldcs_` with non-alphanumerics mapped to '_'.  Histograms
/// export cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
void write_prometheus_text(std::ostream& os, const Registry& r);

}  // namespace mldcs::obs
