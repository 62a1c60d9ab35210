#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace coserve::obs {

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1)
{
}

void
Histogram::record(std::int64_t sample)
{
    std::size_t i = 0;
    while (i < bounds_.size() && sample > bounds_[i])
        ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
}

std::int64_t
Histogram::bucketCount(std::size_t i) const
{
    return i < buckets_.size()
               ? buckets_[i].load(std::memory_order_relaxed)
               : 0;
}

const MetricSample *
MetricsSnapshot::find(const std::string &name) const
{
    for (const MetricSample &s : rows) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

double
MetricsSnapshot::value(const std::string &name, double fallback) const
{
    const MetricSample *s = find(name);
    return s ? s->value : fallback;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    MutexLock lock(mu_);
    return counters_[name];
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    MutexLock lock(mu_);
    return gauges_[name];
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::vector<std::int64_t> bounds)
{
    MutexLock lock(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(std::piecewise_construct,
                          std::forward_as_tuple(name),
                          std::forward_as_tuple(std::move(bounds)))
                 .first;
    }
    return it->second;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MutexLock lock(mu_);
    MetricsSnapshot snap;
    for (const auto &kv : counters_) {
        snap.rows.push_back({kv.first, "counter",
                             static_cast<double>(kv.second.value())});
    }
    for (const auto &kv : gauges_)
        snap.rows.push_back({kv.first, "gauge", kv.second.value()});
    for (const auto &kv : histograms_) {
        snap.rows.push_back({kv.first + ".count", "histogram",
                             static_cast<double>(kv.second.count())});
        snap.rows.push_back({kv.first + ".sum", "histogram",
                             static_cast<double>(kv.second.sum())});
    }
    // Canonical global order: sort by name (insertion-order free).
    std::sort(snap.rows.begin(), snap.rows.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.name < b.name;
              });
    return snap;
}

bool
MetricsRegistry::writeJson(const std::string &path) const
{
    const MetricsSnapshot snap = snapshot();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < snap.rows.size(); ++i) {
        std::fprintf(f, "  \"%s\": %.17g%s\n",
                     snap.rows[i].name.c_str(), snap.rows[i].value,
                     i + 1 < snap.rows.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    return true;
}

} // namespace coserve::obs
