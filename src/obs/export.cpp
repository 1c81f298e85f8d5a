#include "obs/export.hpp"

#include <cctype>
#include <ostream>
#include <string>

namespace mldcs::obs {

namespace {

/// Metric names are dotted identifiers ("cache.dirty_relays"); JSON wants
/// them quoted verbatim, Prometheus wants [a-zA-Z0-9_:] only.
void write_quoted(std::ostream& os, const std::string& name) {
  os << '"';
  for (const char c : name) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

std::string prometheus_name(const std::string& name) {
  std::string out = "mldcs_";
  for (const char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
  }
  return out;
}

void write_histogram_json(std::ostream& os, const HistogramSnapshot& h) {
  os << "{\"count\":" << h.count << ",\"sum\":" << h.sum
     << ",\"min\":" << h.min << ",\"max\":" << h.max
     << ",\"mean\":" << h.mean() << ",\"buckets\":[";
  bool first = true;
  for (const HistogramSnapshot::Bucket& b : h.buckets) {
    if (!first) os << ",";
    first = false;
    os << "{\"lo\":" << b.lo << ",\"hi\":" << b.hi << ",\"count\":" << b.count
       << "}";
  }
  os << "]}";
}

}  // namespace

void write_snapshot_json(std::ostream& os, const Registry& r) {
  const RegistrySnapshot s = r.snapshot();
  os << "{\"schema\":\"mldcs-telemetry-v1\",\"enabled\":true";
  os << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : s.counters) {
    if (!first) os << ",";
    first = false;
    write_quoted(os, name);
    os << ":" << value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : s.gauges) {
    if (!first) os << ",";
    first = false;
    write_quoted(os, name);
    os << ":" << value;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : s.histograms) {
    if (!first) os << ",";
    first = false;
    write_quoted(os, name);
    os << ":";
    write_histogram_json(os, h);
  }
  os << "}}\n";
}

void write_prometheus_text(std::ostream& os, const Registry& r) {
  const RegistrySnapshot s = r.snapshot();
  for (const auto& [name, value] : s.counters) {
    const std::string p = prometheus_name(name);
    os << "# TYPE " << p << " counter\n" << p << " " << value << "\n";
  }
  for (const auto& [name, value] : s.gauges) {
    const std::string p = prometheus_name(name);
    os << "# TYPE " << p << " gauge\n" << p << " " << value << "\n";
  }
  for (const auto& [name, h] : s.histograms) {
    const std::string p = prometheus_name(name);
    os << "# TYPE " << p << " histogram\n";
    std::uint64_t cumulative = 0;
    for (const HistogramSnapshot::Bucket& b : h.buckets) {
      cumulative += b.count;
      os << p << "_bucket{le=\"" << b.hi << "\"} " << cumulative << "\n";
    }
    os << p << "_bucket{le=\"+Inf\"} " << h.count << "\n"
       << p << "_sum " << h.sum << "\n"
       << p << "_count " << h.count << "\n";
  }
}

}  // namespace mldcs::obs
