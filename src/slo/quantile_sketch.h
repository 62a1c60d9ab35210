/**
 * @file
 * Streaming quantile sketch for tail-latency metrics.
 *
 * Per-class p50/p95/p99 latencies must be tracked for every completed
 * request on the runtime's hot completion path, and merged across
 * cluster replicas — so storing raw samples (util/stats.h Samples) is
 * the wrong tool: unbounded memory per class per replica, and an O(n
 * log n) sort per percentile query.
 *
 * QuantileSketch is a DDSketch-style log-bucketed histogram: values map
 * to geometrically-spaced buckets (ratio gamma), so any quantile is
 * answered from cumulative bucket counts with bounded *relative* error
 * (~(gamma-1)/2 per side) in O(buckets) memory, additions are O(1),
 * and two sketches merge by adding bucket counts — exactly what
 * cluster-level aggregation needs. Everything is integer counts plus
 * deterministic double arithmetic, so simulated metrics remain
 * bit-reproducible.
 */

#ifndef COSERVE_SLO_QUANTILE_SKETCH_H
#define COSERVE_SLO_QUANTILE_SKETCH_H

#include <cstdint>
#include <vector>

namespace coserve {

/** Mergeable streaming quantile estimator (log-bucketed histogram). */
class QuantileSketch
{
  public:
    /**
     * @param relativeError target one-sided relative error of quantile
     *        estimates (default 1%); bucket ratio gamma =
     *        (1 + e) / (1 - e).
     */
    explicit QuantileSketch(double relativeError = 0.01);

    /**
     * Add one observation. Values <= 0 (a zero-latency completion is
     * legal in virtual time) land in a dedicated zero bucket.
     */
    void add(double x);

    /** Add all of @p other's observations (bucket-count addition). */
    void merge(const QuantileSketch &other);

    /**
     * Estimate the @p q quantile (q in [0, 1]) by nearest-rank over
     * cumulative bucket counts; bucket midpoints are clamped to the
     * exact observed [min, max]. 0 when empty.
     */
    double quantile(double q) const;

    /** @return number of observations. */
    std::uint64_t count() const { return count_; }

    /** @return exact smallest observation (0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }

    /** @return exact largest observation (0 when empty). */
    double max() const { return count_ ? max_ : 0.0; }

  private:
    /** Log-bucket index of a positive value. */
    int indexOf(double x) const;

    /** Geometric midpoint of bucket @p index. */
    double valueOf(int index) const;

    /** Count slot for bucket @p index, growing the window to it. */
    std::uint64_t &slotFor(int index);

    double gamma_;
    double logGamma_;
    /** Counts for buckets [minIndex_, minIndex_ + size). */
    std::vector<std::uint64_t> buckets_;
    int minIndex_ = 0;
    std::uint64_t zeroCount_ = 0;
    std::uint64_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace coserve

#endif // COSERVE_SLO_QUANTILE_SKETCH_H
