/**
 * @file
 * Telemetry context: configuration + the per-run observability state.
 *
 * TelemetryConfig rides on RunOptions (off by default). A Telemetry
 * object is created per cluster run and owns the three observability
 * legs:
 *
 *  - the MetricsRegistry — filled once at collection from the result
 *    fields (which stay the only counter store); its snapshot is
 *    attached to ClusterResult and written as the metrics JSON;
 *  - the span Tracer — allocated only when enabled (null-sink fast
 *    path: disabled runs never test more than one pointer);
 *  - the virtual-clock epoch sampler — records a time-series row at
 *    each sample interval of the coordinator loop *without stepping
 *    the engines* (pure observation of a quiescent DES state), so
 *    sampling can never perturb the schedule or the decision digest;
 *  - the host profile — per-phase wall-time accumulation fed by
 *    WallTimer blocks (the only sanctioned wall-clock API), reported
 *    as host.* gauges alongside the simulated metrics.
 */

#ifndef COSERVE_OBS_TELEMETRY_H
#define COSERVE_OBS_TELEMETRY_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/time.h"

namespace coserve::obs {

/** Per-run observability knobs (RunOptions::telemetry). */
struct TelemetryConfig
{
    /** Master switch; off leaves the run byte-identical to pre-obs. */
    bool enabled = false;
    /** Chrome trace-event JSON output ("" = no trace). */
    std::string tracePath;
    /** Metrics-registry snapshot as flat JSON ("" = none). */
    std::string metricsJsonPath;
    /** Epoch-sampler time series as CSV ("" = no sampling). */
    std::string metricsCsvPath;
    /** Virtual-time distance between sampler rows. */
    Time sampleInterval = seconds(1);
};

/** One epoch-sampler row (virtual-clock time series). */
struct SampleRow
{
    Time t = 0;
    std::int64_t queueDepth = 0;
    int activeReplicas = 0;
    std::int64_t images = 0;
    std::int64_t inferences = 0;
    double goodputImgPerSec = 0.0;
    std::int64_t preemptions = 0;
    double gpuHitRate = 0.0;
    double cpuHitRate = 0.0;
};

/** Per-phase host wall-time accumulation (microseconds). */
class HostProfile
{
  public:
    /** Accumulate @p us of host time (from @p calls timed blocks). */
    void
    add(const std::string &phase, double us, std::int64_t calls = 1)
    {
        Phase &p = phases_[phase];
        p.us += us;
        p.count += calls;
    }

    /** Export as host.<phase>_us / host.<phase>_calls gauges. */
    void exportTo(MetricsRegistry &registry) const;

  private:
    struct Phase
    {
        double us = 0.0;
        std::int64_t count = 0;
    };
    std::map<std::string, Phase> phases_;
};

/** Per-run observability state owned by ClusterEngine::run(). */
class Telemetry
{
  public:
    /**
     * @param cfg run knobs (copied).
     * @param numReplicas replica count; trace pids are 0 for the
     *        coordinator and i+1 for replica i.
     */
    Telemetry(const TelemetryConfig &cfg, int numReplicas);

    bool enabled() const { return cfg_.enabled; }
    const TelemetryConfig &config() const { return cfg_; }

    MetricsRegistry &registry() { return registry_; }
    const MetricsRegistry &registry() const { return registry_; }

    /** @return the tracer, or nullptr when disabled. */
    Tracer *tracer() { return tracer_.get(); }

    /** @return replica @p i's trace buffer (pid i+1), or nullptr. */
    ReplicaTracer *replicaTracer(int i);

    /** @return the coordinator's trace buffer (pid 0), or nullptr. */
    ReplicaTracer *coordinatorTracer();

    /** True when the coordinator loop should record sample rows. */
    bool
    samplingEnabled() const
    {
        return cfg_.enabled && !cfg_.metricsCsvPath.empty();
    }

    Time sampleInterval() const { return cfg_.sampleInterval; }

    /** Next virtual time a row is due (kTimeNever when not sampling). */
    Time nextSampleTime() const { return nextSample_; }

    /** Record @p row and advance the sample clock. */
    void recordSample(const SampleRow &row);

    std::size_t sampleCount() const { return samples_.size(); }

    HostProfile &host() { return host_; }

    /**
     * Write the configured outputs (trace JSON, metrics JSON, sampler
     * CSV) and fold the host profile into the registry. @return false
     * when any configured file could not be written.
     */
    bool finish();

  private:
    TelemetryConfig cfg_;
    MetricsRegistry registry_;
    std::unique_ptr<Tracer> tracer_;
    std::vector<SampleRow> samples_;
    Time nextSample_ = kTimeNever;
    HostProfile host_;
};

} // namespace coserve::obs

#endif // COSERVE_OBS_TELEMETRY_H
