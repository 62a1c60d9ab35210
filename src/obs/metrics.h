/**
 * @file
 * Metrics registry: named Counter / Gauge handles.
 *
 * The registry is an export, not a store: the engines and the cluster
 * coordinator count into their typed result structs, and a cluster run
 * fills the registry once from those fields when it is collected
 * (exportClusterMetrics, plus the coordinator's tallies and the host
 * profile). The frozen snapshot rides on ClusterResult and is what the
 * metrics JSON file holds.
 *
 * Determinism: counters are relaxed atomics (increments commute) and
 * registration is mutex-guarded, so the registry is safe to fill from
 * any thread; a cluster run fills it from one, at collection. Storage
 * is std::map, so snapshot order is the sorted metric name order —
 * stable across runs and platforms (no unordered containers anywhere
 * in the obs layer).
 */

#ifndef COSERVE_OBS_METRICS_H
#define COSERVE_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/mutex.h"

namespace coserve::obs {

/** Monotonic event count (relaxed atomic: thread-safe, commutative). */
class Counter
{
  public:
    void
    add(std::int64_t delta = 1)
    {
        v_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> v_{0};
};

/** Point-in-time value, set single-threaded at collection time. */
class Gauge
{
  public:
    void set(double v) { v_ = v; }
    double value() const { return v_; }

  private:
    double v_ = 0.0;
};

/** One named value in a frozen snapshot. */
struct MetricSample
{
    std::string name;
    /** "counter" or "gauge". */
    std::string kind;
    double value = 0.0;
};

/**
 * Frozen, name-sorted view of a registry. Attached to ClusterResult
 * so summarize() and tests read metrics without holding the registry.
 */
struct MetricsSnapshot
{
    std::vector<MetricSample> rows;

    /** @return the sample named @p name, or nullptr. */
    const MetricSample *find(const std::string &name) const;

    /** @return value of @p name, or @p fallback when absent. */
    double value(const std::string &name, double fallback) const;

    bool empty() const { return rows.empty(); }
};

/**
 * Named-handle registry. counter()/gauge() register on first use and
 * return a stable reference (map storage is node-based); callers cache
 * the pointer and increment lock-free afterwards.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);

    /** Freeze current values into a name-sorted snapshot. */
    MetricsSnapshot snapshot() const;

    /** Write the snapshot as a flat JSON object to @p path. */
    bool writeJson(const std::string &path) const;

  private:
    mutable Mutex mu_;
    std::map<std::string, Counter> counters_ CS_GUARDED_BY(mu_);
    std::map<std::string, Gauge> gauges_ CS_GUARDED_BY(mu_);
};

} // namespace coserve::obs

#endif // COSERVE_OBS_METRICS_H
