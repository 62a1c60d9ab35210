#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace coserve {

namespace {

/** SplitMix64 step, used only for seeding. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    COSERVE_CHECK(n > 0, "uniformInt(0)");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

std::size_t
Rng::discreteFromCdf(const std::vector<double> &cdf)
{
    COSERVE_CHECK(!cdf.empty(), "empty CDF");
    const double u = uniform() * cdf.back();
    auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    if (it == cdf.end())
        --it;
    return static_cast<std::size_t>(it - cdf.begin());
}

ZipfDistribution::ZipfDistribution(std::size_t n, double s)
{
    COSERVE_CHECK(n >= 1, "Zipf over empty support");
    cdf_.resize(n);
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = acc;
    }
}

std::size_t
ZipfDistribution::operator()(Rng &rng) const
{
    return rng.discreteFromCdf(cdf_);
}

} // namespace coserve
