/**
 * @file
 * Tests for the extension features beyond the paper's core: the report
 * module and the arrival processes (Fixed and Bursty task traces,
 * Poisson and MMPP one-tenant SLO traces).
 */

#include <gtest/gtest.h>

#include <vector>

#include "baselines/systems.h"
#include "coe/board_builder.h"
#include "metrics/report.h"
#include "workload/generator.h"

namespace coserve {
namespace {

TEST(ReportTest, SummaryMentionsKeyNumbers)
{
    RunResult r;
    r.label = "unit-system";
    r.images = 100;
    r.inferences = 140;
    r.makespan = seconds(10);
    r.throughput = 10.0;
    r.switches.loadsFromSsd = 7;
    r.switches.loadsFromCache = 3;
    for (int i = 0; i < 140; ++i)
        r.requestLatencyMs.add(5.0);
    const std::string s = summarize(r);
    EXPECT_NE(s.find("unit-system"), std::string::npos);
    EXPECT_NE(s.find("100 images"), std::string::npos);
    EXPECT_NE(s.find("10 expert switches"), std::string::npos);
}

/** One classless tenant drawing @p process arrivals at @p ratePerSec. */
Trace
oneTenantTrace(const CoEModel &m, ArrivalProcess process, double ratePerSec,
               Time duration)
{
    TenantSpec tenant;
    tenant.name = "one";
    tenant.cls = RequestClass::None;
    tenant.ratePerSec = ratePerSec;
    tenant.arrivals = process;
    return generateSloTrace(m, {tenant}, duration, 42);
}

TEST(ArrivalProcessTest, PoissonMeanGapMatches)
{
    // 250 arrivals/s: a mean gap of 4 ms, about 20,000 arrivals.
    const CoEModel m = buildBoard(tinyBoard());
    const Trace t =
        oneTenantTrace(m, ArrivalProcess::Poisson, 250.0, seconds(80));
    ASSERT_GT(t.size(), 19000u);
    const double meanGap =
        toMilliseconds(t.arrivals.back().time) /
        static_cast<double>(t.size() - 1);
    EXPECT_NEAR(meanGap, 4.0, 0.2);
    for (std::size_t i = 1; i < t.size(); ++i)
        EXPECT_GE(t.arrivals[i].time, t.arrivals[i - 1].time);
}

TEST(ArrivalProcessTest, BurstyGroupsArrivals)
{
    const CoEModel m = buildBoard(tinyBoard());
    TaskSpec task;
    task.numImages = 96;
    task.arrivals = ArrivalProcess::Bursty;
    task.burstSize = 32;
    task.interarrival = milliseconds(4);
    const Trace t = generateTrace(m, task);
    // First 32 arrive together at t=0, next 32 at 128 ms, ...
    EXPECT_EQ(t.arrivals[0].time, 0);
    EXPECT_EQ(t.arrivals[31].time, 0);
    EXPECT_EQ(t.arrivals[32].time, milliseconds(128));
    EXPECT_EQ(t.arrivals[95].time, milliseconds(256));
}

TEST(ArrivalProcessTest, EngineServesAllProcesses)
{
    const CoEModel m = buildBoard(tinyBoard());
    Harness h(tinyTestDevice(), m);
    std::vector<Trace> traces;
    for (ArrivalProcess p : {ArrivalProcess::Fixed, ArrivalProcess::Bursty}) {
        TaskSpec task;
        task.numImages = 200;
        task.arrivals = p;
        traces.push_back(generateTrace(m, task));
    }
    for (ArrivalProcess p : {ArrivalProcess::Poisson, ArrivalProcess::MMPP})
        traces.push_back(oneTenantTrace(m, p, 250.0, milliseconds(800)));
    for (const Trace &t : traces) {
        ASSERT_GT(t.size(), 0u);
        const RunResult r = h.run(SystemKind::CoServeCasual, t);
        EXPECT_EQ(r.images, static_cast<std::int64_t>(t.size()));
    }
}

TEST(ArrivalProcessTest, TaskTracesRefusePoissonAndMmpp)
{
    // Poisson and MMPP arrivals have one generator: generateSloTrace.
    const CoEModel m = buildBoard(tinyBoard());
    for (ArrivalProcess p : {ArrivalProcess::Poisson, ArrivalProcess::MMPP}) {
        TaskSpec task;
        task.name = "open-loop";
        task.arrivals = p;
        EXPECT_EXIT(generateTrace(m, task), ::testing::ExitedWithCode(1),
                    "task 'open-loop': generateTrace draws Fixed or Bursty "
                    "arrivals; Poisson and MMPP arrivals come from "
                    "generateSloTrace");
    }
}

} // namespace
} // namespace coserve
