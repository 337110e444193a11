/**
 * @file
 * Ablation 8: when does offload pay? Two models, one question. LogCA
 * (related work [33]) answers in offload *granularity*; Gables
 * answers in operational *intensity*. This bench runs both on a
 * Hexagon-DSP-like offload and shows they draw the same boundary
 * from different coordinates: small/low-reuse work stays on the CPU.
 */

#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "core/gables.h"
#include "core/logca.h"
#include "soc/catalog.h"
#include "util/table.h"

namespace {

using namespace gables;

void
reproduce()
{
    bench::banner("Ablation 8a",
                  "LogCA: speedup vs offload granularity");
    LogCAModel::Params p;
    p.overhead = 50e-6;       // dispatch through the Android driver
    p.latency = 0.5e-6;       // DMA per item
    p.computePerItem = 10e-6; // host compute per item
    p.acceleration = 8.0;     // Hexagon vs CPU (paper Section II-A)
    p.beta = 1.0;
    p.eta = 1.0;
    LogCAModel logca(p);

    TextTable t({"granularity g", "host (ms)", "accel (ms)",
                 "speedup"});
    for (double g : {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 16384.0}) {
        t.addRow({formatDouble(g, 0),
                  formatDouble(logca.hostTime(g) * 1e3, 3),
                  formatDouble(logca.accelTime(g) * 1e3, 3),
                  formatDouble(logca.speedup(g), 2) + "x"});
    }
    std::cout << t.render();
    std::cout << "break-even g1 = "
              << formatDouble(logca.breakEvenGranularity(), 1)
              << " items; asymptote "
              << formatDouble(logca.asymptoticSpeedup(), 2)
              << "x (vs A = 8: proportional transfer caps the win)\n";

    bench::banner("Ablation 8b",
                  "Gables: offload win vs operational intensity");
    SocSpec soc = SocCatalog::snapdragon835();
    TextTable t2({"intensity I", "CPU-only Gops/s", "DSP-only Gops/s",
                  "offload wins?"});
    for (double i : {0.0625, 0.25, 1.0, 4.0, 16.0}) {
        std::vector<IpWork> cpu_w = {IpWork{1.0, i}, IpWork{0.0, 1.0},
                                     IpWork{0.0, 1.0}};
        std::vector<IpWork> dsp_w = {IpWork{0.0, 1.0}, IpWork{0.0, 1.0},
                                     IpWork{1.0, i}};
        double cpu =
            GablesModel::evaluate(soc, Usecase("c", cpu_w)).attainable;
        double dsp =
            GablesModel::evaluate(soc, Usecase("d", dsp_w)).attainable;
        t2.addRow({formatDouble(i, 4), formatDouble(cpu / 1e9, 3),
                   formatDouble(dsp / 1e9, 3),
                   dsp > cpu ? "yes" : "no"});
    }
    std::cout << t2.render();
    std::cout
        << "the scalar DSP never beats the CPU on raw single-stream "
           "throughput\n(3 vs 7.5 Gops/s peak, 5.4 vs 15.1 GB/s) -- "
           "matching the paper's\nSection IV-D finding that the "
           "scalar unit is for low-power offload,\nnot acceleration. "
           "Both models agree: the offload decision depends on\n"
           "workload shape (granularity for LogCA, intensity and "
           "fraction for\nGables), not on the accelerator's "
           "existence.\n";
}

} // namespace

int
main()
{
    reproduce();
    return 0;
}
