#include "obs/telemetry.h"

#include <cstdio>

#include "util/csv.h"

namespace coserve::obs {

void
HostProfile::exportTo(MetricsRegistry &registry) const
{
    for (const auto &kv : phases_) {
        registry.gauge("host." + kv.first + "_us").set(kv.second.us);
        registry.gauge("host." + kv.first + "_calls")
            .set(static_cast<double>(kv.second.count));
    }
}

Telemetry::Telemetry(const TelemetryConfig &cfg, int numReplicas)
    : cfg_(cfg)
{
    if (cfg_.enabled)
        tracer_ = std::make_unique<Tracer>(numReplicas + 1);
    if (samplingEnabled())
        nextSample_ = cfg_.sampleInterval;
}

ReplicaTracer *
Telemetry::replicaTracer(int i)
{
    return tracer_ ? tracer_->replica(i + 1) : nullptr;
}

ReplicaTracer *
Telemetry::coordinatorTracer()
{
    return tracer_ ? tracer_->replica(0) : nullptr;
}

void
Telemetry::recordSample(const SampleRow &row)
{
    samples_.push_back(row);
    nextSample_ += cfg_.sampleInterval;
}

namespace {

std::string
formatG(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
formatI(std::int64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(v));
    return buf;
}

} // namespace

bool
Telemetry::finish()
{
    bool ok = true;
    host_.exportTo(registry_);
    if (tracer_ && !cfg_.tracePath.empty())
        ok = tracer_->writeFile(cfg_.tracePath) && ok;
    if (cfg_.enabled && !cfg_.metricsJsonPath.empty())
        ok = registry_.writeJson(cfg_.metricsJsonPath) && ok;
    if (samplingEnabled()) {
        CsvWriter csv(cfg_.metricsCsvPath,
                      {"t_s", "queue_depth", "active_replicas",
                       "images", "inferences", "goodput_img_per_s",
                       "preemptions", "gpu_hit_rate", "cpu_hit_rate"});
        for (const SampleRow &s : samples_) {
            csv.addRow({formatG(toSeconds(s.t)),
                        formatI(s.queueDepth),
                        formatI(s.activeReplicas), formatI(s.images),
                        formatI(s.inferences),
                        formatG(s.goodputImgPerSec),
                        formatI(s.preemptions),
                        formatG(s.gpuHitRate),
                        formatG(s.cpuHitRate)});
        }
    }
    return ok;
}

} // namespace coserve::obs
