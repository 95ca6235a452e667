#ifndef MBR_OBS_METRICS_H_
#define MBR_OBS_METRICS_H_

// Lock-free metrics registry: monotonic counters, gauges, and log2
// histograms with named registration.
//
// Registration (GetCounter / GetGauge / GetHistogram) takes a mutex and is
// expected to happen once per call site (cache the returned pointer, or let
// a function-local static do it). Recording on the returned handle is a
// relaxed atomic add — safe from any thread, no locks, pointers stay valid
// for the registry's lifetime (instruments live in std::deques).
//
// Histograms use floor-log2 bucketing: bucket b holds [2^b, 2^(b+1)) with
// bucket 0 absorbing 0 and sub-unit values, and the last bucket clamping
// the tail.
//
// A MetricsSnapshot is the registry's values at one instant and the one
// stats value type: the STATS wire reply carries it, the serving log line
// renders it, and a coordinator's rollup is a Merge of its shards'
// snapshots — so a series registered once reaches all three.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mbr::obs {

// ---------------------------------------------------------------------------
// Runtime enable switch. Gates span timing and the slow-query log (the
// optional, per-request-path costs). Counters and explicit Record() calls
// are NOT gated: engine logic (cache stats, shed accounting) depends on
// them. Compile-time removal is MBR_OBS_NOOP (see span.h).
// ---------------------------------------------------------------------------

void SetEnabled(bool on);
bool Enabled();

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

class Counter {
 public:
  void Increment(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

inline constexpr int kHistogramBuckets = 32;

// Floor-log2 bucket index: 0 -> 0, 1 -> 0, 2^k -> k, clamped to the last
// bucket. Bucket b therefore holds values in [2^b, 2^(b+1)).
inline int Log2Bucket(uint64_t v) {
  if (v == 0) return 0;
  int b = 63 - std::countl_zero(v);
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

class Histogram {
 public:
  struct Snapshot {
    std::array<uint64_t, kHistogramBuckets> buckets{};
    uint64_t count = 0;
    uint64_t sum = 0;

    // Lower bound (2^b) of the bucket holding the nearest-rank
    // (ceil(p * total)) sample; 0 for an empty histogram.
    double PercentileLowerBound(double p) const;
    // Adds `other`'s buckets, count and sum into this one.
    void Merge(const Snapshot& other);
  };

  void Record(uint64_t v) {
    buckets_[Log2Bucket(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  Snapshot TakeSnapshot() const;

 private:
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// Sorted at registration so {a=1,b=2} and {b=2,a=1} are the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

struct MetricMeta {
  std::string name;
  std::string help;
  Labels labels;
};

// Every series of a registry (or a merge of several) with its value,
// keyed by name plus sorted labels. Lookups take labels sorted by key.
struct MetricsSnapshot {
  template <typename V>
  struct Series {
    std::string name;
    Labels labels;
    V value{};
  };
  std::vector<Series<uint64_t>> counters;
  std::vector<Series<int64_t>> gauges;
  std::vector<Series<Histogram::Snapshot>> histograms;

  // Folds `other` in series by series: counters and histogram buckets
  // sum, gauges take the max. A series only `other` has is appended.
  void Merge(const MetricsSnapshot& other);

  // The value of series (name, labels); 0 / an empty histogram if absent.
  uint64_t CounterValue(std::string_view name,
                        const Labels& labels = {}) const {
    return ValueOf(counters, name, labels);
  }
  int64_t GaugeValue(std::string_view name, const Labels& labels = {}) const {
    return ValueOf(gauges, name, labels);
  }
  Histogram::Snapshot HistogramValue(std::string_view name,
                                     const Labels& labels = {}) const {
    return ValueOf(histograms, name, labels);
  }

 private:
  template <typename V>
  static V ValueOf(const std::vector<Series<V>>& series, std::string_view name,
                   const Labels& labels) {
    for (const auto& s : series) {
      if (s.name == name && s.labels == labels) return s.value;
    }
    return V{};
  }
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Registers (or finds) the series identified by (name, labels). The help
  // string of the first registration wins. Registering the same name with a
  // different instrument kind is a programmer error and aborts.
  Counter* GetCounter(std::string_view name, std::string_view help,
                      Labels labels = {});
  Gauge* GetGauge(std::string_view name, std::string_view help,
                  Labels labels = {});
  Histogram* GetHistogram(std::string_view name, std::string_view help,
                          Labels labels = {});

  // Value snapshots in registration order, for exposition and tests.
  std::vector<std::pair<MetricMeta, uint64_t>> SnapshotCounters() const;
  std::vector<std::pair<MetricMeta, int64_t>> SnapshotGauges() const;
  std::vector<std::pair<MetricMeta, Histogram::Snapshot>> SnapshotHistograms()
      const;
  // Every series' value, in registration order.
  MetricsSnapshot TakeSnapshot() const;

  // Process-wide registry: spans and the CLI serve path register here so a
  // single RenderPrometheus() call shows every stage of the request path.
  static Registry& Default();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Series {
    MetricMeta meta;
    Kind kind;
    size_t index;  // into the deque for its kind
  };

  // Returns the series slot for (name, labels, kind), creating it if new.
  Series& Lookup(std::string_view name, std::string_view help, Labels labels,
                 Kind kind);

  mutable std::mutex mu_;
  std::vector<Series> series_;  // registration order
  // Deques: handle pointers must survive later registrations.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

}  // namespace mbr::obs

#endif  // MBR_OBS_METRICS_H_
