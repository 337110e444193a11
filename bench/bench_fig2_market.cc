/**
 * @file
 * Regenerates Figure 2: (a) mobile SoC chipsets introduced per year
 * and (b) IP blocks per SoC generation — the motivational datasets,
 * reconstructed shape-faithfully (see DESIGN.md).
 */

#include <fstream>
#include <iostream>

#include "analysis/sweep.h"
#include "bench_util.h"
#include "plot/series_plot.h"
#include "soc/market_data.h"
#include "util/table.h"

namespace {

using namespace gables;

Series
toSeries(const std::vector<YearCount> &data, const std::string &label)
{
    Series s;
    s.label = label;
    for (const YearCount &yc : data) {
        s.x.push_back(static_cast<double>(yc.year));
        s.y.push_back(yc.count);
    }
    return s;
}

void
reproduce()
{
    bench::banner("Figure 2a", "SoC chipsets per year (GSMArena mine)");
    TextTable ta({"year", "chipsets"});
    for (const YearCount &yc : MarketData::chipsetsPerYear())
        ta.addRow({std::to_string(yc.year),
                   formatDouble(yc.count, 0)});
    std::cout << ta.render();
    std::cout << "peak year: " << MarketData::peakChipsetYear()
              << " (paper: peak ~2015 then consolidation decline)\n";

    SeriesPlot pa("Figure 2a: SoC chipsets per year", "year",
                  "chipsets");
    pa.addSeries(toSeries(MarketData::chipsetsPerYear(), "chipsets"));
    std::ofstream fa("fig2a_chipsets.svg");
    fa << pa.renderSvg();
    std::cout << "wrote fig2a_chipsets.svg\n"
              << pa.renderAscii();

    bench::banner("Figure 2b",
                  "IP blocks per SoC generation (after Shao et al.)");
    TextTable tb({"generation", "IP blocks"});
    for (const YearCount &yc : MarketData::ipBlocksPerGeneration())
        tb.addRow({std::to_string(yc.year),
                   formatDouble(yc.count, 0)});
    std::cout << tb.render();
    std::cout << "latest generation exceeds 30 IPs, as in the paper\n";

    SeriesPlot pb("Figure 2b: IP blocks per generation", "generation",
                  "IP blocks");
    pb.addSeries(
        toSeries(MarketData::ipBlocksPerGeneration(), "IP blocks"));
    std::ofstream fb("fig2b_ipblocks.svg");
    fb << pb.renderSvg();
    std::cout << "wrote fig2b_ipblocks.svg\n";
}

} // namespace

int
main()
{
    reproduce();
    return 0;
}
