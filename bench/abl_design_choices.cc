/**
 * @file
 * Ablation of prefetch overlap (switch loading during preceding
 * batches), beyond the paper's own ablation (Figures 15/16): CoServe
 * Best (decay-window-planned memory split) and CoServe Casual (75/25
 * split), each with and without prefetch, on board A, task A1, on
 * both devices.
 */

#include "bench/bench_util.h"

using namespace coserve;

namespace {

void
row(Table &t, Harness &h, const Trace &trace, const char *label,
    SystemKind kind, const SystemOverrides &ov)
{
    const RunResult r = h.run(kind, trace, ov);
    t.addRow({label, formatDouble(r.throughput, 1),
              std::to_string(r.switches.total()),
              formatDouble(toSeconds(r.makespan), 1) + " s"});
}

} // namespace

int
main()
{
    bench::banner("Design-choice ablations",
                  "CoServe variants with single techniques disabled "
                  "(board A, task A1, both devices)");

    for (const DeviceSpec &dev :
         {bench::numaDevice(), bench::umaDevice()}) {
        Harness &h = bench::harnessFor(dev, bench::modelA());
        const Trace trace = generateTrace(bench::modelA(), taskA1());
        std::printf("\n%s\n", dev.name.c_str());
        Table t({"Variant", "Throughput (img/s)", "Switches",
                 "Makespan"});

        row(t, h, trace, "CoServe Best (all on)",
            SystemKind::CoServeBest, {});
        SystemOverrides noPf;
        noPf.prefetch = 0;
        row(t, h, trace, "  - prefetch overlap",
            SystemKind::CoServeBest, noPf);
        row(t, h, trace, "CoServe Casual (75/25 split)",
            SystemKind::CoServeCasual, {});
        SystemOverrides casualNoPf;
        casualNoPf.prefetch = 0;
        row(t, h, trace, "  - prefetch overlap",
            SystemKind::CoServeCasual, casualNoPf);
        t.print();
    }
    return 0;
}
