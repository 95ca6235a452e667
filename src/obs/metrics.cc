#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace mbr::obs {

namespace {

std::atomic<bool> g_enabled{true};

// Series identity: name + sorted labels, joined with bytes that cannot
// appear in a metric name or label ('\x1f' unit, '\x1e' record separators).
std::string SeriesKey(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x1e';
    key += k;
    key += '\x1f';
    key += v;
  }
  return key;
}

// Folds each series of `from` into its twin in `into`, or appends it.
template <typename V, typename Combine>
void MergeSeries(std::vector<MetricsSnapshot::Series<V>>* into,
                 const std::vector<MetricsSnapshot::Series<V>>& from,
                 Combine combine) {
  for (const auto& s : from) {
    auto mine = std::find_if(into->begin(), into->end(), [&s](const auto& m) {
      return m.name == s.name && m.labels == s.labels;
    });
    if (mine == into->end()) {
      into->push_back(s);
    } else {
      combine(&mine->value, s.value);
    }
  }
}

}  // namespace

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

double Histogram::Snapshot::PercentileLowerBound(double p) const {
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  const uint64_t rank =
      static_cast<uint64_t>(std::ceil(p * static_cast<double>(total)));
  uint64_t seen = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank && seen > 0) {
      return static_cast<double>(uint64_t{1} << b);
    }
  }
  return static_cast<double>(uint64_t{1} << (kHistogramBuckets - 1));
}

void Histogram::Snapshot::Merge(const Snapshot& other) {
  for (int b = 0; b < kHistogramBuckets; ++b) buckets[b] += other.buckets[b];
  count += other.count;
  sum += other.sum;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  MergeSeries(&counters, other.counters,
              [](uint64_t* a, uint64_t b) { *a += b; });
  MergeSeries(&gauges, other.gauges,
              [](int64_t* a, int64_t b) { *a = std::max(*a, b); });
  MergeSeries(&histograms, other.histograms,
              [](Histogram::Snapshot* a, const Histogram::Snapshot& b) {
                a->Merge(b);
              });
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot s;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

Registry::Series& Registry::Lookup(std::string_view name,
                                   std::string_view help, Labels labels,
                                   Kind kind) {
  std::sort(labels.begin(), labels.end());
  const std::string key = SeriesKey(name, labels);
  for (Series& s : series_) {
    if (SeriesKey(s.meta.name, s.meta.labels) == key) {
      // Same series re-registered: must be the same instrument kind.
      MBR_CHECK(s.kind == kind);
      return s;
    }
    // One family (name) cannot mix instrument kinds.
    MBR_CHECK(s.meta.name != name || s.kind == kind);
  }
  Series s;
  s.meta.name = std::string(name);
  s.meta.help = std::string(help);
  s.meta.labels = std::move(labels);
  s.kind = kind;
  switch (kind) {
    case Kind::kCounter:
      s.index = counters_.size();
      counters_.emplace_back();
      break;
    case Kind::kGauge:
      s.index = gauges_.size();
      gauges_.emplace_back();
      break;
    case Kind::kHistogram:
      s.index = histograms_.size();
      histograms_.emplace_back();
      break;
  }
  series_.push_back(std::move(s));
  return series_.back();
}

Counter* Registry::GetCounter(std::string_view name, std::string_view help,
                              Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return &counters_[Lookup(name, help, std::move(labels), Kind::kCounter)
                        .index];
}

Gauge* Registry::GetGauge(std::string_view name, std::string_view help,
                          Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return &gauges_[Lookup(name, help, std::move(labels), Kind::kGauge).index];
}

Histogram* Registry::GetHistogram(std::string_view name, std::string_view help,
                                  Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return &histograms_[Lookup(name, help, std::move(labels), Kind::kHistogram)
                          .index];
}

std::vector<std::pair<MetricMeta, uint64_t>> Registry::SnapshotCounters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<MetricMeta, uint64_t>> out;
  for (const Series& s : series_) {
    if (s.kind != Kind::kCounter) continue;
    out.emplace_back(s.meta, counters_[s.index].Value());
  }
  return out;
}

std::vector<std::pair<MetricMeta, int64_t>> Registry::SnapshotGauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<MetricMeta, int64_t>> out;
  for (const Series& s : series_) {
    if (s.kind != Kind::kGauge) continue;
    out.emplace_back(s.meta, gauges_[s.index].Value());
  }
  return out;
}

std::vector<std::pair<MetricMeta, Histogram::Snapshot>>
Registry::SnapshotHistograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<MetricMeta, Histogram::Snapshot>> out;
  for (const Series& s : series_) {
    if (s.kind != Kind::kHistogram) continue;
    out.emplace_back(s.meta, histograms_[s.index].TakeSnapshot());
  }
  return out;
}

MetricsSnapshot Registry::TakeSnapshot() const {
  MetricsSnapshot out;
  for (auto& [m, v] : SnapshotCounters()) {
    out.counters.push_back({std::move(m.name), std::move(m.labels), v});
  }
  for (auto& [m, v] : SnapshotGauges()) {
    out.gauges.push_back({std::move(m.name), std::move(m.labels), v});
  }
  for (auto& [m, v] : SnapshotHistograms()) {
    out.histograms.push_back({std::move(m.name), std::move(m.labels), v});
  }
  return out;
}

Registry& Registry::Default() {
  static Registry* r = new Registry();  // never destroyed: handles outlive exit
  return *r;
}

}  // namespace mbr::obs
