#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace coserve::obs {

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
