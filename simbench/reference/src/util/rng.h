/**
 * @file
 * Deterministic, seedable random number generation.
 *
 * We avoid std::mt19937 + std::*_distribution because their outputs are
 * not guaranteed identical across standard library implementations; the
 * benchmark harness depends on bit-reproducible workload traces.
 *
 * The generator is xoshiro256** seeded through SplitMix64, with
 * hand-rolled uniform / Bernoulli / Zipf samplers.
 */

#ifndef COSERVE_UTIL_RNG_H
#define COSERVE_UTIL_RNG_H

#include <cstdint>
#include <vector>

namespace coserve {

/** Deterministic pseudo-random generator (xoshiro256**). */
class Rng
{
  public:
    /** Seed through SplitMix64 so nearby seeds decorrelate. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** @return the next raw 64-bit value. */
    std::uint64_t next();

    /** @return a double uniform in [0, 1). */
    double uniform();

    /** @return a double uniform in [lo, hi). */
    double uniform(double lo, double hi);

    /** @return an integer uniform in [0, n); n must be > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** @return true with probability @p p. */
    bool bernoulli(double p);

    /**
     * Sample from an arbitrary discrete distribution.
     *
     * @param cdf non-decreasing cumulative weights, cdf.back() == total.
     * @return index in [0, cdf.size()).
     */
    std::size_t discreteFromCdf(const std::vector<double> &cdf);

    /** Derive an independent child generator (for sub-streams). */
    Rng fork();

  private:
    std::uint64_t s_[4];
};

/**
 * Zipf(s, n) sampler over ranks {0, .., n-1}: P(k) proportional to
 * 1 / (k + 1)^s. Precomputes the CDF once; sampling is O(log n).
 *
 * Used to model the skewed component-quantity distribution of circuit
 * boards (paper Figure 11: the top 35 of 352 experts cover about 60% of
 * usage, which matches s close to 1 for n = 352).
 */
class ZipfDistribution
{
  public:
    /**
     * @param n number of ranks, must be >= 1.
     * @param s skew exponent, s >= 0 (0 = uniform).
     */
    ZipfDistribution(std::size_t n, double s);

    /** @return a rank in [0, n). */
    std::size_t operator()(Rng &rng) const;

    /** @return P(rank = k). */
    double probability(std::size_t k) const;

    /** @return number of ranks n. */
    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

} // namespace coserve

#endif // COSERVE_UTIL_RNG_H
