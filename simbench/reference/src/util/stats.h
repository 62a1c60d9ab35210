/**
 * @file
 * Small statistics helpers used by the profiler, the metrics module and
 * the benchmark harness: running mean/min/max, percentiles, histograms.
 */

#ifndef COSERVE_UTIL_STATS_H
#define COSERVE_UTIL_STATS_H

#include <cstddef>
#include <vector>

namespace coserve {

/** Online mean / min / max / variance accumulator (Welford). */
class RunningStat
{
  public:
    /** Add one observation. */
    void add(double x);

    /** @return number of observations. */
    std::size_t count() const { return n_; }

    /** @return arithmetic mean (0 when empty). */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** @return population variance (0 when < 2 samples). */
    double variance() const;

    /** @return standard deviation. */
    double stddev() const;

    /** @return smallest observation (0 when empty). */
    double min() const { return n_ ? min_ : 0.0; }

    /** @return largest observation (0 when empty). */
    double max() const { return n_ ? max_ : 0.0; }

    /** @return sum of all observations. */
    double sum() const { return sum_; }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Sample reservoir with exact percentiles. Stores every sample; intended
 * for per-run request latency distributions (thousands of entries).
 */
class Samples
{
  public:
    /** Add one observation. */
    void add(double x) { xs_.push_back(x); }

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

/**
 * Fixed-width histogram over [lo, hi) with overflow/underflow buckets.
 */
class Histogram
{
  public:
    /**
     * @param lo lower bound of the first bucket.
     * @param hi upper bound of the last bucket; must be > lo.
     * @param buckets number of equal-width buckets (>= 1).
     */
    Histogram(double lo, double hi, std::size_t buckets);

    /** Add one observation. */
    void add(double x);

    /** @return count in bucket @p i (0..buckets-1). */
    std::size_t bucketCount(std::size_t i) const;

    /** @return count of samples below the histogram range. */
    std::size_t underflow() const { return underflow_; }

    /** @return count of samples at/above the histogram range. */
    std::size_t overflow() const { return overflow_; }

    /** @return total samples added. */
    std::size_t total() const { return total_; }

    /** @return number of buckets. */
    std::size_t buckets() const { return counts_.size(); }

    /** @return inclusive lower edge of bucket @p i. */
    double bucketLow(std::size_t i) const;

  private:
    double lo_;
    double width_;
    std::vector<std::size_t> counts_;
    std::size_t underflow_ = 0;
    std::size_t overflow_ = 0;
    std::size_t total_ = 0;
};

} // namespace coserve

#endif // COSERVE_UTIL_STATS_H
