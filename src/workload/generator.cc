#include "workload/generator.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/rng.h"

namespace coserve {

namespace {

/** Cumulative image-probability table of the model's components. */
std::vector<double>
componentCdf(const CoEModel &model)
{
    std::vector<double> cdf(model.numComponents());
    double acc = 0.0;
    for (std::size_t i = 0; i < model.numComponents(); ++i) {
        acc += model.component(static_cast<ComponentId>(i)).imageProb;
        cdf[i] = acc;
    }
    return cdf;
}

/** Exponential draw with mean @p mean (> 0). */
double
expDraw(Rng &rng, double mean)
{
    return -std::log(1.0 - rng.uniform()) * mean;
}

} // namespace

Trace
generateTrace(const CoEModel &model, const TaskSpec &task)
{
    COSERVE_CHECK(task.numImages > 0, "empty task");
    COSERVE_CHECK(task.interarrival >= 0, "negative interarrival");
    COSERVE_CHECK(task.burstSize >= 1, "bursts need at least one image");
    if (task.arrivals != ArrivalProcess::Fixed &&
        task.arrivals != ArrivalProcess::Bursty) {
        fatal("task '", task.name, "': generateTrace draws Fixed or Bursty "
              "arrivals; Poisson and MMPP arrivals come from "
              "generateSloTrace");
    }

    Rng rng(task.seed);
    const std::vector<double> cdf = componentCdf(model);
    // Bursty: burstSize back-to-back images per burst; Fixed is the
    // one-image burst.
    const std::size_t burst = task.arrivals == ArrivalProcess::Bursty
                                  ? static_cast<std::size_t>(task.burstSize)
                                  : 1;

    Trace trace;
    trace.arrivals.reserve(task.numImages);
    for (std::size_t i = 0; i < task.numImages; ++i) {
        ImageArrival a;
        a.time = task.interarrival * static_cast<Time>(burst) *
                 static_cast<Time>(i / burst);
        a.component = static_cast<ComponentId>(rng.discreteFromCdf(cdf));
        a.defective =
            rng.bernoulli(model.component(a.component).defectProb);
        trace.arrivals.push_back(a);
    }
    return trace;
}

Trace
generateSloTrace(const CoEModel &model,
                 const std::vector<TenantSpec> &tenants, Time duration,
                 std::uint64_t seed)
{
    COSERVE_CHECK(!tenants.empty(), "SLO trace needs tenants");
    COSERVE_CHECK(duration > 0, "SLO trace needs a positive duration");
    const std::vector<double> cdf = componentCdf(model);

    // (arrival, tenant index): the tenant index breaks same-time ties
    // deterministically in the final sort.
    std::vector<std::pair<ImageArrival, std::size_t>> merged;

    for (std::size_t ti = 0; ti < tenants.size(); ++ti) {
        const TenantSpec &t = tenants[ti];
        COSERVE_CHECK(t.ratePerSec > 0, "tenant '", t.name,
                      "' needs a positive rate");
        COSERVE_CHECK(t.diurnalAmplitude >= 0.0 &&
                          t.diurnalAmplitude < 1.0,
                      "tenant '", t.name,
                      "' diurnal amplitude must be in [0, 1)");
        COSERVE_CHECK(t.arrivals == ArrivalProcess::Poisson ||
                          t.arrivals == ArrivalProcess::MMPP,
                      "tenant '", t.name,
                      "' must use Poisson or MMPP arrivals");
        const bool mmpp = t.arrivals == ArrivalProcess::MMPP;
        COSERVE_CHECK(!mmpp || t.mmppBurstFactor > 1.0, "tenant '",
                      t.name, "' MMPP burst factor must be > 1");

        // Each tenant gets an independent deterministic substream so
        // adding a tenant never perturbs the others' draws.
        Rng rng(seed ^ (0x9E3779B97F4A7C15ull * (ti + 1)));

        // Thinning (Lewis & Shedler): draw a homogeneous Poisson
        // stream at the tenant's peak rate, keep each candidate with
        // probability rate(t) / peak — exact for any bounded
        // time-varying rate, which covers the diurnal modulation and
        // the MMPP regimes in one mechanism.
        const double peakRate = t.ratePerSec *
                                (mmpp ? t.mmppBurstFactor : 1.0) *
                                (1.0 + t.diurnalAmplitude);
        bool bursting = false;
        double stateEndSec =
            mmpp ? expDraw(rng, toSeconds(t.mmppMeanCalm)) : 0.0;

        double clockSec = 0.0;
        const double durationSec = toSeconds(duration);
        for (;;) {
            clockSec += expDraw(rng, 1.0 / peakRate);
            if (clockSec >= durationSec)
                break;
            if (mmpp) {
                while (clockSec >= stateEndSec) {
                    bursting = !bursting;
                    stateEndSec += expDraw(
                        rng, toSeconds(bursting ? t.mmppMeanBurst
                                                : t.mmppMeanCalm));
                }
            }
            double rate = t.ratePerSec *
                          (bursting ? t.mmppBurstFactor : 1.0);
            if (t.diurnalAmplitude > 0.0) {
                constexpr double kTau = 6.283185307179586476925287;
                rate *= 1.0 + t.diurnalAmplitude *
                                  std::sin(kTau * clockSec /
                                               toSeconds(t.diurnalPeriod) +
                                           t.diurnalPhase);
            }
            if (rng.uniform() >= rate / peakRate)
                continue;

            ImageArrival a;
            a.time = seconds(clockSec);
            a.component =
                static_cast<ComponentId>(rng.discreteFromCdf(cdf));
            a.defective =
                rng.bernoulli(model.component(a.component).defectProb);
            a.cls = t.cls;
            a.deadline = t.latencyBudget == kTimeNever
                             ? kTimeNever
                             : a.time + t.latencyBudget;
            merged.push_back({a, ti});
        }
    }

    // stable_sort: a tenant's equal-time arrivals (possible under the
    // thinning's zero-gap draws) must keep their generation order for
    // bit-reproducibility across standard libraries.
    std::stable_sort(merged.begin(), merged.end(),
                     [](const auto &x, const auto &y) {
                         if (x.first.time != y.first.time)
                             return x.first.time < y.first.time;
                         return x.second < y.second;
                     });

    Trace trace;
    trace.arrivals.reserve(merged.size());
    for (const auto &[a, ti] : merged)
        trace.arrivals.push_back(a);
    return trace;
}

namespace {

TaskSpec
makeTask(const char *name, std::size_t images, std::uint64_t seed)
{
    TaskSpec t;
    t.name = name;
    t.numImages = images;
    t.seed = seed;
    return t;
}

} // namespace

TaskSpec
taskA1()
{
    return makeTask("Task A1", 2500, 0xA1);
}

TaskSpec
taskA2()
{
    return makeTask("Task A2", 3500, 0xA2);
}

TaskSpec
taskB1()
{
    return makeTask("Task B1", 2500, 0xB1);
}

TaskSpec
taskB2()
{
    return makeTask("Task B2", 3500, 0xB2);
}

} // namespace coserve
