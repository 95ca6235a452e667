#include "obs/prometheus.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

namespace mbr::obs {

namespace {

void AppendEscaped(std::string* out, const std::string& v) {
  for (char c : v) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '"':
        *out += "\\\"";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        *out += c;
    }
  }
}

// Renders `{k="v",...}` including one extra label, or "" when empty.
std::string LabelBlock(const Labels& labels, const char* extra_key = nullptr,
                       const std::string& extra_value = "") {
  if (labels.empty() && extra_key == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    AppendEscaped(&out, v);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    AppendEscaped(&out, extra_value);
    out += '"';
  }
  out += '}';
  return out;
}

void AppendHeader(std::string* out, bool* emitted, const MetricMeta& meta,
                  const char* type) {
  if (*emitted) return;
  *emitted = true;
  *out += "# HELP " + meta.name + " " + meta.help + "\n";
  *out += "# TYPE " + meta.name + " ";
  *out += type;
  *out += '\n';
}

// Renders every series of one kind grouped by family: all series of a
// family must form one contiguous block after its # HELP/# TYPE header,
// so walk families in first-registration order, then every series of
// each family.
template <typename V, typename Emit>
void RenderKind(const std::vector<std::pair<MetricMeta, V>>& series,
                const char* type, std::string* out, Emit emit) {
  std::vector<std::string> done;
  for (size_t i = 0; i < series.size(); ++i) {
    const std::string& family = series[i].first.name;
    if (std::find(done.begin(), done.end(), family) != done.end()) continue;
    done.push_back(family);
    bool emitted = false;
    for (size_t j = i; j < series.size(); ++j) {
      if (series[j].first.name != family) continue;
      AppendHeader(out, &emitted, series[j].first, type);
      emit(series[j].first, series[j].second);
    }
  }
}

}  // namespace

std::string RenderPrometheus(const Registry& registry) {
  std::string out;
  char buf[64];
  RenderKind(registry.SnapshotCounters(), "counter", &out,
             [&](const MetricMeta& meta, uint64_t value) {
               std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", value);
               out += meta.name + LabelBlock(meta.labels) + buf;
             });
  RenderKind(registry.SnapshotGauges(), "gauge", &out,
             [&](const MetricMeta& meta, int64_t value) {
               std::snprintf(buf, sizeof(buf), " %" PRId64 "\n", value);
               out += meta.name + LabelBlock(meta.labels) + buf;
             });
  RenderKind(
      registry.SnapshotHistograms(), "histogram", &out,
      [&](const MetricMeta& meta, const Histogram::Snapshot& snap) {
        uint64_t cumulative = 0;
        for (int b = 0; b < kHistogramBuckets; ++b) {
          cumulative += snap.buckets[b];
          std::string le;
          if (b == kHistogramBuckets - 1) {
            le = "+Inf";
          } else {
            // Bucket b holds [2^b, 2^(b+1)): largest integer it admits.
            std::snprintf(buf, sizeof(buf), "%" PRIu64,
                          (uint64_t{1} << (b + 1)) - 1);
            le = buf;
          }
          std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", cumulative);
          out += meta.name + "_bucket" + LabelBlock(meta.labels, "le", le) +
                 buf;
        }
        std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", snap.sum);
        out += meta.name + "_sum" + LabelBlock(meta.labels) + buf;
        std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", snap.count);
        out += meta.name + "_count" + LabelBlock(meta.labels) + buf;
      });
  return out;
}

}  // namespace mbr::obs
