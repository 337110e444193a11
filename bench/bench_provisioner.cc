/**
 * @file
 * Ablation 9: inverse design. Takes the full Snapdragon-835-like SoC
 * (deliberately generous) and the extended usecase portfolio at its
 * frame-rate targets, and shrinks every knob to the cheapest design
 * that still runs everything — the paper's "which IPs and roughly
 * how big?" answered constructively, Figure 6d's "sufficient"
 * reasoning generalized to all knobs and nine usecases at once.
 */

#include <iostream>

#include "analysis/provisioner.h"
#include "bench_util.h"
#include "soc/catalog.h"
#include "soc/usecases.h"
#include "util/table.h"

namespace {

using namespace gables;

/**
 * Requirements from the usecase catalog at each entry's fps target,
 * capped at what the generous design can actually do (HFR and Lens
 * miss their targets on ANY scaling of this design — see
 * bench_table1 — so we require their achievable rates instead).
 */
std::vector<Requirement>
portfolio(const SocSpec &soc)
{
    std::vector<Requirement> reqs;
    for (const UsecaseEntry &entry : UsecaseCatalog::extended()) {
        Usecase u = entry.graph.toUsecase(soc);
        double capability = GablesModel::evaluate(soc, u).attainable;
        double target = entry.graph.opsPerFrame() * entry.targetFps;
        reqs.push_back(
            Requirement{u, std::min(target, capability * 0.999)});
    }
    return reqs;
}

void
reproduce()
{
    bench::banner("Ablation 9",
                  "shrink-to-fit provisioning for the nine-usecase "
                  "portfolio");
    SocSpec start = SocCatalog::snapdragon835Full();
    std::vector<Requirement> reqs = portfolio(start);
    ProvisionedDesign r = Provisioner::minimize(start, reqs);

    TextTable t({"knob", "generous", "sufficient", "kept"});
    t.addRow({"Bpeak (GB/s)", formatDouble(start.bpeak() / 1e9, 1),
              formatDouble(r.soc.bpeak() / 1e9, 1),
              formatDouble(r.soc.bpeak() / start.bpeak() * 100.0, 0) +
                  "%"});
    for (size_t i = 0; i < start.numIps(); ++i) {
        t.addRow({start.ip(i).name + " link (GB/s)",
                  formatDouble(start.ip(i).bandwidth / 1e9, 1),
                  formatDouble(r.soc.ip(i).bandwidth / 1e9, 2),
                  formatDouble(r.soc.ip(i).bandwidth /
                                   start.ip(i).bandwidth * 100.0,
                               0) +
                      "%"});
    }
    for (size_t i = 1; i < start.numIps(); ++i) {
        t.addRow({start.ip(i).name + " accel (Ai)",
                  formatDouble(start.ip(i).acceleration, 1),
                  formatDouble(r.soc.ip(i).acceleration, 2),
                  formatDouble(r.soc.ip(i).acceleration /
                                   start.ip(i).acceleration * 100.0,
                               0) +
                      "%"});
    }
    std::cout << t.render();
    std::cout << "converged in " << r.iterations
              << " fixpoint iterations; every usecase still meets "
                 "its requirement.\nknobs kept near 100% are the "
                 "portfolio's true constraints (conjecture 3: the\n"
                 "fi estimates decide which accelerations are "
                 "justified); knobs far below 100%\nwere "
                 "over-provisioned for THESE usecases.\n";
}

} // namespace

int
main()
{
    reproduce();
    return 0;
}
