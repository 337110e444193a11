/**
 * @file
 * Ablation 3 (paper Sections V-C and VI): concurrent vs serialized
 * work, and the MultiAmdahl comparison. Quantifies how much the
 * concurrency assumption (justified by Table I) is worth, and shows
 * what MultiAmdahl — which ignores bandwidth — misses on
 * bandwidth-starved usecases.
 */

#include <iostream>

#include "bench_util.h"
#include "core/multiamdahl.h"
#include "core/phased.h"
#include "core/serialized.h"
#include "soc/catalog.h"
#include "util/table.h"

namespace {

using namespace gables;

void
reproduce()
{
    bench::banner("Ablation 3 (V-C)",
                  "concurrent vs serialized execution");
    SocSpec soc = SocCatalog::snapdragon835();

    TextTable t({"usecase", "concurrent Gops/s", "serialized Gops/s",
                 "concurrency speedup"});
    struct Case {
        const char *name;
        Usecase u;
    };
    std::vector<Case> cases = {
        {"balanced high-I",
         Usecase("a", {IpWork{0.2, 16.0}, IpWork{0.7, 16.0},
                       IpWork{0.1, 16.0}})},
        {"GPU-heavy streaming",
         Usecase("b", {IpWork{0.1, 1.0}, IpWork{0.85, 2.0},
                       IpWork{0.05, 0.5}})},
        {"CPU-dominant",
         Usecase("c", {IpWork{0.8, 8.0}, IpWork{0.15, 8.0},
                       IpWork{0.05, 8.0}})},
    };
    for (const Case &c : cases) {
        double con = GablesModel::evaluate(soc, c.u).attainable;
        double ser = SerializedModel::evaluate(soc, c.u).attainable;
        t.addRow({c.name, formatDouble(con / 1e9, 2),
                  formatDouble(ser / 1e9, 2),
                  formatDouble(con / ser, 2) + "x"});
    }
    std::cout << t.render();

    bench::banner("Ablation 3b",
                  "phased pipelines (capture phase + merge phase)");
    Usecase capture("capture", {IpWork{0.1, 4.0}, IpWork{0.8, 8.0},
                                IpWork{0.1, 2.0}});
    Usecase merge("merge", {IpWork{1.0, 16.0}, IpWork{0.0, 1.0},
                            IpWork{0.0, 1.0}});
    PhasedUsecase hdr(
        "hdr-like",
        {Phase{"capture", 0.7, PhaseMode::Concurrent, capture},
         Phase{"merge", 0.3, PhaseMode::Exclusive, merge}});
    PhasedResult pr = hdr.evaluate(soc);
    TextTable t2({"phase", "share", "phase Gops/s", "time share"});
    for (size_t i = 0; i < hdr.phases().size(); ++i) {
        t2.addRow({hdr.phases()[i].name,
                   formatDouble(hdr.phases()[i].workShare, 2),
                   formatDouble(pr.phasePerf[i] / 1e9, 2),
                   formatDouble(pr.timeShare[i], 3)});
    }
    std::cout << t2.render()
              << "overall: " << formatDouble(pr.attainable / 1e9, 2)
              << " Gops/s, dominant phase: "
              << hdr.phases()[static_cast<size_t>(pr.dominantPhase)]
                     .name
              << '\n';

    bench::banner("Ablation 3c (VI)",
                  "MultiAmdahl vs Gables on a bandwidth-starved case");
    // MultiAmdahl optimizes areas ignoring bandwidth; Gables shows
    // the same usecase is memory-bound, so extra area is wasted.
    Usecase starved("starved", {IpWork{0.25, 8.0}, IpWork{0.75, 0.1},
                                IpWork{0.0, 1.0}});
    MultiAmdahlModel ma = multiAmdahlFromGables(soc, starved, 100.0);
    MultiAmdahlResult mar = ma.optimize();
    GablesResult gr = GablesModel::evaluate(soc, starved);
    std::cout << "MultiAmdahl optimal areas: CPU="
              << formatDouble(mar.areas[0], 1)
              << " GPU=" << formatDouble(mar.areas[1], 1)
              << " (it would spend area on the GPU)\n"
              << "Gables verdict: bottleneck is "
              << gr.bottleneckLabel(soc) << " at "
              << formatDouble(gr.attainable / 1e9, 2)
              << " Gops/s -- area cannot fix a bandwidth bound;\n"
              << "this is the paper's key argument for modeling Bi "
                 "and Bpeak (Section VI)\n";
}

} // namespace

int
main()
{
    reproduce();
    return 0;
}
