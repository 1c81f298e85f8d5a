#include "obs/telemetry.hpp"

#include <algorithm>
#include <deque>
#include <mutex>

namespace mldcs::obs {

/// Metric storage: deques give stable addresses under growth, the mutex
/// guards only name lookup/insertion (never the metric updates themselves).
struct Registry::Impl {
  mutable std::mutex mu;
  std::deque<std::pair<std::string, Counter>> counters;
  std::deque<std::pair<std::string, Gauge>> gauges;
  std::deque<std::pair<std::string, Histogram>> histograms;

  template <typename Deque>
  auto& find_or_create(Deque& metrics, std::string_view name) {
    const std::lock_guard<std::mutex> lock(mu);
    for (auto& [n, m] : metrics) {
      if (n == name) return m;
    }
    metrics.emplace_back(std::piecewise_construct,
                         std::forward_as_tuple(name), std::forward_as_tuple());
    return metrics.back().second;
  }
};

Registry::Registry() : impl_(new Impl) {}
Registry::~Registry() { delete impl_; }

Counter& Registry::counter(std::string_view name) {
  return impl_->find_or_create(impl_->counters, name);
}

Gauge& Registry::gauge(std::string_view name) {
  return impl_->find_or_create(impl_->gauges, name);
}

Histogram& Registry::histogram(std::string_view name) {
  return impl_->find_or_create(impl_->histograms, name);
}

RegistrySnapshot Registry::snapshot() const {
  RegistrySnapshot s;
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    s.counters.reserve(impl_->counters.size());
    for (const auto& [n, m] : impl_->counters) s.counters.emplace_back(n, m.value());
    s.gauges.reserve(impl_->gauges.size());
    for (const auto& [n, m] : impl_->gauges) s.gauges.emplace_back(n, m.value());
    s.histograms.reserve(impl_->histograms.size());
    for (const auto& [n, m] : impl_->histograms) {
      s.histograms.emplace_back(n, m.snapshot());
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(s.counters.begin(), s.counters.end(), by_name);
  std::sort(s.gauges.begin(), s.gauges.end(), by_name);
  std::sort(s.histograms.begin(), s.histograms.end(), by_name);
  return s;
}

void Registry::reset() noexcept {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [n, m] : impl_->counters) m.reset();
  for (auto& [n, m] : impl_->gauges) m.reset();
  for (auto& [n, m] : impl_->histograms) m.reset();
}

Registry& registry() {
  // Leaked on purpose: instrumentation points hold cached references and
  // worker threads may outlive any particular static-destruction order.
  static Registry* global = new Registry;
  return *global;
}

}  // namespace mldcs::obs
