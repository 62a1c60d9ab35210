/**
 * @file
 * Human-readable rendering and cross-system comparison of RunResults.
 *
 * Used by examples and ad-hoc experiments; the figure benches format
 * their own tables to match the paper's layout.
 */

#ifndef COSERVE_METRICS_REPORT_H
#define COSERVE_METRICS_REPORT_H

#include <iosfwd>
#include <string>
#include <vector>

#include "metrics/cluster_result.h"
#include "metrics/run_result.h"

namespace coserve {

namespace obs {
class MetricsRegistry; // obs/metrics.h
}

/** Render one run as a multi-line summary (throughput, switches...). */
std::string summarize(const RunResult &result);

/**
 * Render a cluster run: aggregate throughput / switches / imbalance,
 * one row per replica (images, throughput, and — when work stealing
 * ran — requests stolen from / re-routed to it), then the cluster's
 * merged tier counters.
 */
std::string summarize(const ClusterResult &result);

/** Render per-executor utilization rows. */
std::string summarizeExecutors(const RunResult &result);

/**
 * Comparison across systems on the same workload: one row per run with
 * throughput, speedup vs. the first entry (the baseline), switch
 * counts and reduction vs. the baseline.
 */
void printComparison(const std::vector<RunResult> &results,
                     std::ostream &os);

/** Convenience overload writing to stdout. */
void printComparison(const std::vector<RunResult> &results);

/**
 * Export a collected cluster run into @p registry: the aggregated
 * engine counters (cluster.images / .inferences, switch.*, preempt.*)
 * as counters, and the derived metrics (throughput, makespan, SLO
 * aggregates and per-class quantiles, per-tier counters, autoscale /
 * quiesce-drain values) as gauges. Called once, at collection; the
 * result fields stay the store.
 */
void exportClusterMetrics(const ClusterResult &result,
                          obs::MetricsRegistry &registry);

} // namespace coserve

#endif // COSERVE_METRICS_REPORT_H
