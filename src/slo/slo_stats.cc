#include "slo/slo_stats.h"

#include "util/logging.h"

namespace coserve {

const char *
toString(RequestClass cls)
{
    switch (cls) {
    case RequestClass::Interactive:
        return "interactive";
    case RequestClass::Batch:
        return "batch";
    case RequestClass::BestEffort:
        return "best-effort";
    case RequestClass::None:
        return "none";
    }
    return "?";
}

void
SloClassStats::merge(const SloClassStats &o)
{
    completed += o.completed;
    sloMet += o.sloMet;
    violated += o.violated;
    rejected += o.rejected;
    downgraded += o.downgraded;
    latencyMs.merge(o.latencyMs);
}

SloClassStats &
SloStats::of(RequestClass cls)
{
    const auto i = static_cast<std::size_t>(cls);
    COSERVE_CHECK(i < kNumSloClasses, "untracked request class");
    return perClass[i];
}

const SloClassStats &
SloStats::of(RequestClass cls) const
{
    const auto i = static_cast<std::size_t>(cls);
    COSERVE_CHECK(i < kNumSloClasses, "untracked request class");
    return perClass[i];
}

bool
SloStats::any() const
{
    for (const SloClassStats &c : perClass) {
        if (c.completed > 0 || c.rejected > 0 || c.downgraded > 0)
            return true;
    }
    return false;
}

void
SloStats::recordCompletion(RequestClass cls, double latencyMs,
                           bool violatedDeadline)
{
    if (!sloTracked(cls))
        return;
    SloClassStats &c = of(cls);
    c.completed += 1;
    (violatedDeadline ? c.violated : c.sloMet) += 1;
    c.latencyMs.add(latencyMs);
}

void
SloStats::recordRejected(RequestClass cls)
{
    if (sloTracked(cls))
        of(cls).rejected += 1;
}

void
SloStats::recordDowngraded(RequestClass cls)
{
    if (sloTracked(cls))
        of(cls).downgraded += 1;
}

std::int64_t
SloStats::completed() const
{
    std::int64_t n = 0;
    for (const SloClassStats &c : perClass)
        n += c.completed;
    return n;
}

std::int64_t
SloStats::sloMet() const
{
    std::int64_t n = 0;
    for (const SloClassStats &c : perClass)
        n += c.sloMet;
    return n;
}

std::int64_t
SloStats::violated() const
{
    std::int64_t n = 0;
    for (const SloClassStats &c : perClass)
        n += c.violated;
    return n;
}

std::int64_t
SloStats::rejected() const
{
    std::int64_t n = 0;
    for (const SloClassStats &c : perClass)
        n += c.rejected;
    return n;
}

std::int64_t
SloStats::downgraded() const
{
    std::int64_t n = 0;
    for (const SloClassStats &c : perClass)
        n += c.downgraded;
    return n;
}

double
SloStats::violationRate() const
{
    const std::int64_t done = completed();
    return done > 0 ? static_cast<double>(violated()) /
                          static_cast<double>(done)
                    : 0.0;
}

double
SloStats::goodput(Time makespan) const
{
    return makespan > 0
               ? static_cast<double>(sloMet()) / toSeconds(makespan)
               : 0.0;
}

void
SloStats::merge(const SloStats &o)
{
    for (std::size_t i = 0; i < perClass.size(); ++i)
        perClass[i].merge(o.perClass[i]);
}

} // namespace coserve
