#include "service/serving_stats.h"

#include <cstdio>

#include "core/recommender_iface.h"

namespace mbr::service {

std::string FormatStatsLine(const obs::MetricsSnapshot& s) {
  auto count = [&s](const char* name) {
    return static_cast<unsigned long long>(s.CounterValue(name));
  };
  auto tier = [&s](core::Tier t) {
    return static_cast<unsigned long long>(s.CounterValue(
        "mbr_engine_tier_served_total", {{"tier", core::TierName(t)}}));
  };
  const unsigned long long hits = count("mbr_engine_cache_hits_total");
  const unsigned long long looked_up =
      hits + count("mbr_engine_cache_misses_total");
  const double hit_rate =
      looked_up == 0 ? 0.0 : static_cast<double>(hits) / looked_up;
  const unsigned long long accepted =
      count("mbr_net_connections_accepted_total");
  const unsigned long long closed = count("mbr_net_connections_closed_total");
  const obs::Histogram::Snapshot latency =
      s.HistogramValue("mbr_engine_latency_us");
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "queries=%llu hit=%.1f%% shed=%llu+%llu expired=%llu conns=%llu/%llu "
      "p50=%.0fus p90=%.0fus p99=%.0fus tiers=%llu/%llu/%llu degraded=%llu",
      count("mbr_engine_queries_total"), 100.0 * hit_rate,
      count("mbr_net_shed_overload_total"),
      count("mbr_net_shed_deadline_total"),
      count("mbr_engine_deadline_exceeded_total"),
      accepted >= closed ? accepted - closed : 0, accepted,
      latency.PercentileLowerBound(0.50), latency.PercentileLowerBound(0.90),
      latency.PercentileLowerBound(0.99), tier(core::Tier::kExact),
      tier(core::Tier::kApprox), tier(core::Tier::kStale),
      count("mbr_engine_degraded_total"));
  return buf;
}

}  // namespace mbr::service
