/**
 * @file
 * Ablation 5: simulator fidelity. Sweeps random single-IP designs
 * and operating points, comparing the analytic Gables bound against
 * the discrete-event simulator — the bound property (sim <= model)
 * and the gap distribution.
 */

#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "core/gables.h"
#include "parallel/parallel_for.h"
#include "sim/soc.h"
#include "soc/catalog.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace gables;

void
reproduce()
{
    bench::banner("Ablation 5",
                  "Gables bound vs simulator, random designs");
    // Draw every operating point serially first so the stream of
    // random numbers is independent of the worker count; the trials
    // themselves fan out over the pool into index-order slots.
    Rng rng(20260706);
    struct Trial {
        double peak, link, dram, intensity;
        double model = 0.0, sim = 0.0;
    };
    const int trials = 16;
    std::vector<Trial> grid(trials);
    for (Trial &trial : grid) {
        trial.peak = rng.logUniform(1e9, 100e9);
        trial.link = rng.logUniform(2e9, 50e9);
        trial.dram = rng.logUniform(2e9, 50e9);
        trial.intensity = rng.logUniform(0.05, 64.0);
    }

    parallel::parallelFor(
        grid.size(), [&](size_t i) {
            Trial &trial = grid[i];
            SocSpec spec("s", trial.peak, trial.dram,
                         {IpSpec{"IP0", 1.0, trial.link}});
            Usecase u("u", {IpWork{1.0, trial.intensity}});
            trial.model = GablesModel::evaluate(spec, u).attainable;

            auto soc = SocCatalog::simpleSim(trial.peak, trial.link,
                                             trial.dram);
            sim::KernelJob job;
            job.workingSetBytes = 64e6;
            job.totalBytes = 64e6;
            job.opsPerByte = trial.intensity;
            trial.sim = soc->run({{"IP0", job}})
                            .engine("IP0")
                            .achievedOpsRate();
        },
        parallel::ForOptions{});

    TextTable t({"peak Gops/s", "link GB/s", "DRAM GB/s", "I",
                 "model Gops/s", "sim Gops/s", "sim/model"});
    double worst = 1.0, best = 0.0, sum = 0.0;
    for (const Trial &trial : grid) {
        double ratio = trial.sim / trial.model;
        worst = std::min(worst, ratio);
        best = std::max(best, ratio);
        sum += ratio;
        t.addRow({formatDouble(trial.peak / 1e9, 2),
                  formatDouble(trial.link / 1e9, 2),
                  formatDouble(trial.dram / 1e9, 2),
                  formatDouble(trial.intensity, 3),
                  formatDouble(trial.model / 1e9, 2),
                  formatDouble(trial.sim / 1e9, 2),
                  formatDouble(ratio, 4)});
    }
    std::cout << t.render();
    std::cout << "sim/model ratio: min " << formatDouble(worst, 4)
              << ", mean " << formatDouble(sum / trials, 4)
              << ", max " << formatDouble(best, 4)
              << " (the model is an upper bound; the simulator "
                 "achieves >90% of it)\n";
}

} // namespace

int
main()
{
    reproduce();
    return 0;
}
