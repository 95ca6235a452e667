#ifndef MBR_SERVICE_SERVING_STATS_H_
#define MBR_SERVICE_SERVING_STATS_H_

// The operator's one-line view of "how is this replica serving", rendered
// from a registry snapshot: a server's StatsNow(), a decoded STATS reply,
// or a router's rollup all print the same way.

#include <string>

#include "obs/metrics.h"

namespace mbr::service {

// The canonical one-line rendering of the mbr_engine_* and mbr_net_*
// series in `s`, e.g.
//   "queries=120 hit=41.7% shed=3+0 expired=1 conns=2/17 p50=128us
//    p90=512us p99=1024us tiers=100/15/5 degraded=20"
// (shed is overload+deadline at the network layer, expired is the engine's
// own deadline-exceeded count, conns is open/accepted, the percentiles
// are PercentileLowerBound of mbr_engine_latency_us, tiers is
// exact/approx/stale). Absent series read as zero.
std::string FormatStatsLine(const obs::MetricsSnapshot& s);

}  // namespace mbr::service

#endif  // MBR_SERVICE_SERVING_STATS_H_
