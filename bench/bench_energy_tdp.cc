/**
 * @file
 * Ablation 7: the energy/TDP extension. The paper motivates mobile
 * SoCs with a "tight 3 Watt thermal design point" and accelerators
 * an order of magnitude more efficient than the AP; this bench
 * quantifies both: attainable performance under a TDP sweep, and
 * the energy story of offloading (why the IPU does HDR+ at
 * one-tenth the power).
 */

#include <iostream>

#include "bench_util.h"
#include "core/energy.h"
#include "soc/catalog.h"
#include "util/table.h"

namespace {

using namespace gables;

/** Mobile-flavoured coefficients for the three-IP Snapdragon. */
EnergyModel
sd835Energy()
{
    // AP ~100 pJ/op; GPU ~20 pJ/op; DSP ~8 pJ/op (the paper's
    // "order of magnitude more efficient"); LPDDR4 ~25 pJ/byte.
    return EnergyModel({100e-12, 20e-12, 8e-12}, 25e-12, 0.4);
}

void
reproduce()
{
    SocSpec soc = SocCatalog::snapdragon835();
    EnergyModel energy = sd835Energy();

    bench::banner("Ablation 7a",
                  "attainable performance under a TDP sweep");
    // A GPU-resident vision workload: its hardware rooflines allow
    // ~350 Gops/s, far beyond what a phone's thermals can feed.
    Usecase vision("vision", {IpWork{0.02, 8.0}, IpWork{0.98, 32.0},
                              IpWork{0.0, 1.0}});
    TextTable t({"TDP (W)", "roofline Gops/s", "TDP-bound Gops/s",
                 "constrained", "thermally limited?"});
    for (double tdp : {1.0, 2.0, 3.0, 5.0, 8.0, 15.0}) {
        EnergyResult r = energy.evaluate(soc, vision, tdp);
        t.addRow({formatDouble(tdp, 1),
                  formatDouble(r.attainable / 1e9, 1),
                  formatDouble(r.tdpBound / 1e9, 1),
                  formatDouble(r.constrained / 1e9, 1),
                  r.thermallyLimited ? "yes" : "no"});
    }
    std::cout << t.render()
              << "at the paper's 3 W phone budget the chip is "
                 "thermally limited well below its rooflines\n";

    bench::banner("Ablation 7b",
                  "offload as an energy play (3 W budget)");
    TextTable t2({"work split", "energy/op (pJ)", "perf @ 3 W",
                  "power (W)"});
    struct Case {
        const char *name;
        Usecase u;
    };
    std::vector<Case> cases = {
        {"all on AP", Usecase("a", {IpWork{1.0, 16.0},
                                    IpWork{0.0, 1.0},
                                    IpWork{0.0, 1.0}})},
        {"80% GPU", Usecase("b", {IpWork{0.2, 16.0},
                                  IpWork{0.8, 16.0},
                                  IpWork{0.0, 1.0}})},
        {"80% GPU + 10% DSP", Usecase("c", {IpWork{0.1, 16.0},
                                            IpWork{0.8, 16.0},
                                            IpWork{0.1, 16.0}})},
    };
    for (const Case &c : cases) {
        EnergyResult r = energy.evaluate(soc, c.u, 3.0);
        t2.addRow({c.name,
                   formatDouble(energy.usecaseEnergyPerOp(c.u) * 1e12,
                                1),
                   formatDouble(r.constrained / 1e9, 2) + " Gops/s",
                   formatDouble(r.power, 2)});
    }
    std::cout << t2.render()
              << "moving work to efficient IPs multiplies the "
                 "performance available inside the same 3 W\n";
}

} // namespace

int
main()
{
    reproduce();
    return 0;
}
