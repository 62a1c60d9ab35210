/**
 * @file
 * Small statistics helpers used by the profiler, the metrics module and
 * the benchmark harness: a sample reservoir with exact percentiles.
 */

#ifndef COSERVE_UTIL_STATS_H
#define COSERVE_UTIL_STATS_H

#include <cstddef>
#include <vector>

namespace coserve {

/**
 * Sample reservoir with exact percentiles. Stores every sample; intended
 * for per-run request latency distributions (thousands of entries).
 */
class Samples
{
  public:
    /** Add one observation. */
    void add(double x) { xs_.push_back(x); }

    /** Append every observation of @p parts, in order, in one allocation. */
    void appendAll(const std::vector<const Samples *> &parts);

    /** @return number of observations. */
    std::size_t count() const { return xs_.size(); }

    /** @return arithmetic mean (0 when empty). */
    double mean() const;

    /**
     * Exact percentile by nearest-rank on a sorted copy.
     * @param p percentile in [0, 100].
     */
    double percentile(double p) const;

    /** @return all raw samples (unsorted). */
    const std::vector<double> &raw() const { return xs_; }

  private:
    std::vector<double> xs_;
};

} // namespace coserve

#endif // COSERVE_UTIL_STATS_H
