/**
 * @file
 * Unit tests for the util module: time formatting, RNG, statistics,
 * linear fitting, tables and CSV output.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/csv.h"
#include "util/linear_fit.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strutil.h"
#include "util/table.h"
#include "util/time.h"

namespace coserve {
namespace {

TEST(TimeTest, UnitConstructors)
{
    EXPECT_EQ(nanoseconds(5), 5);
    EXPECT_EQ(microseconds(2.0), 2000);
    EXPECT_EQ(milliseconds(3.0), 3'000'000);
    EXPECT_EQ(seconds(1.5), 1'500'000'000);
}

TEST(TimeTest, Conversions)
{
    EXPECT_DOUBLE_EQ(toMilliseconds(milliseconds(12.5)), 12.5);
    EXPECT_DOUBLE_EQ(toSeconds(seconds(2.25)), 2.25);
}

TEST(TimeTest, FormatPicksUnits)
{
    EXPECT_EQ(formatTime(500), "500 ns");
    EXPECT_EQ(formatTime(microseconds(1.5)), "1.50 us");
    EXPECT_EQ(formatTime(milliseconds(20)), "20.00 ms");
    EXPECT_EQ(formatTime(seconds(3)), "3.00 s");
}

TEST(StrutilTest, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(1536), "1.50 KiB");
    EXPECT_EQ(formatBytes(3ll * 1024 * 1024 * 1024), "3.00 GiB");
}

TEST(StrutilTest, FormatPercentAndDouble)
{
    EXPECT_EQ(formatPercent(0.1234, 1), "12.3%");
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
}

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformIntBounds)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(RngTest, BernoulliRate)
{
    Rng rng(11);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, DiscreteFromCdfRespectsWeights)
{
    Rng rng(3);
    const std::vector<double> cdf{0.5, 0.75, 1.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 30000; ++i)
        counts[rng.discreteFromCdf(cdf)] += 1;
    EXPECT_NEAR(counts[0] / 30000.0, 0.50, 0.02);
    EXPECT_NEAR(counts[1] / 30000.0, 0.25, 0.02);
    EXPECT_NEAR(counts[2] / 30000.0, 0.25, 0.02);
}

TEST(ZipfTest, SamplingMatchesProbability)
{
    // P(k) = (1 / (k + 1)^s) / sum; s = 0 is uniform.
    for (const double s : {1.0, 0.0}) {
        ZipfDistribution zipf(8, s);
        Rng rng(13);
        std::vector<int> counts(8, 0);
        const int n = 40000;
        for (int i = 0; i < n; ++i)
            counts[zipf(rng)] += 1;
        std::vector<double> weights(8);
        double total = 0.0;
        for (std::size_t k = 0; k < 8; ++k) {
            weights[k] = 1.0 / std::pow(static_cast<double>(k + 1), s);
            total += weights[k];
        }
        for (std::size_t k = 0; k < 8; ++k) {
            EXPECT_NEAR(static_cast<double>(counts[k]) / n,
                        weights[k] / total, 0.01);
        }
    }
}

TEST(SamplesTest, PercentileInterpolates)
{
    Samples s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
    EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
    EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(LinearFitTest, ExactLine)
{
    const std::vector<double> xs{1, 2, 3, 4, 5};
    const std::vector<double> ys{3, 5, 7, 9, 11}; // y = 2x + 1
    const LinearFit fit = fitLine(xs, ys);
    EXPECT_NEAR(fit.slope, 2.0, 1e-9);
    EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
    EXPECT_NEAR(fit.r2, 1.0, 1e-9);
    EXPECT_NEAR(fit(10.0), 21.0, 1e-9);
}

TEST(LinearFitTest, NoisyLineReasonable)
{
    Rng rng(1);
    std::vector<double> xs, ys;
    for (int i = 1; i <= 30; ++i) {
        xs.push_back(i);
        ys.push_back(4.0 * i + 2.0 + rng.uniform(-0.5, 0.5));
    }
    const LinearFit fit = fitLine(xs, ys);
    EXPECT_NEAR(fit.slope, 4.0, 0.1);
    EXPECT_NEAR(fit.intercept, 2.0, 1.0);
    EXPECT_GT(fit.r2, 0.99);
}

TEST(TableTest, AlignsColumns)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(CsvTest, WritesQuotedCells)
{
    const std::string path = "/tmp/coserve_csv_test.csv";
    {
        CsvWriter w(path, {"a", "b"});
        w.addRow({"plain", "with,comma"});
        w.addRow({"with\"quote", "x"});
        EXPECT_EQ(w.rows(), 2u);
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "plain,\"with,comma\"");
    std::remove(path.c_str());
}

} // namespace
} // namespace coserve
