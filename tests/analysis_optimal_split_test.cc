/**
 * @file
 * Tests for the optimal work-split solver, including a property
 * check that no random split beats the solved optimum.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "analysis/optimal_split.h"
#include "soc/catalog.h"
#include "util/logging.h"
#include "util/rng.h"

namespace gables {
namespace {

TEST(OptimalSplit, SingleIpGetsEverything)
{
    SocSpec soc("one", 10e9, 20e9, {IpSpec{"CPU", 1.0, 8e9}});
    OptimalSplit r = OptimalSplitSolver(soc, {4.0}).solve();
    ASSERT_EQ(r.fractions.size(), 1u);
    EXPECT_DOUBLE_EQ(r.fractions[0], 1.0);
    EXPECT_DOUBLE_EQ(r.attainable, 10e9); // compute bound at I = 4
}

TEST(OptimalSplit, ComputeBoundCaseSharesByPeak)
{
    // Huge intensities: every IP is compute-bound, so the optimum
    // loads each IP in proportion to its peak and achieves the sum.
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    OptimalSplit r =
        OptimalSplitSolver(soc, {1e6, 1e6}).solve();
    EXPECT_NEAR(r.attainable, 240e9, 240e9 * 1e-6);
    EXPECT_NEAR(r.fractions[0], 40.0 / 240.0, 1e-6);
    EXPECT_NEAR(r.fractions[1], 200.0 / 240.0, 1e-6);
}

TEST(OptimalSplit, SolverResultMatchesModelEvaluation)
{
    SocSpec soc = SocCatalog::snapdragon835();
    OptimalSplit r =
        OptimalSplitSolver(soc, {4.0, 16.0, 1.0}).solve();
    double model = GablesModel::evaluate(soc, r.usecase).attainable;
    EXPECT_NEAR(r.attainable, model, model * 1e-12);
}

TEST(OptimalSplit, BeatsPureCpuAndPureGpuWhenBalancedHelps)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    OptimalSplit r = OptimalSplitSolver(soc, {8.0, 8.0}).solve();
    double cpu_only =
        GablesModel::evaluate(soc, Usecase::twoIp("c", 0.0, 8.0, 8.0))
            .attainable;
    double gpu_only =
        GablesModel::evaluate(soc, Usecase::twoIp("g", 1.0, 8.0, 8.0))
            .attainable;
    EXPECT_GE(r.attainable, cpu_only);
    EXPECT_GE(r.attainable, gpu_only);
    // The paper's balanced point: f = 0.75 achieving 160 Gops/s.
    EXPECT_NEAR(r.attainable, 160e9, 160e9 * 1e-9);
    EXPECT_NEAR(r.fractions[1], 0.75, 1e-6);
}

TEST(OptimalSplit, NoRandomSplitBeatsOptimum)
{
    Rng rng(4242);
    SocSpec soc = SocCatalog::snapdragon835();
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> intensities = {
            rng.logUniform(0.1, 64.0), rng.logUniform(0.1, 64.0),
            rng.logUniform(0.1, 64.0)};
        OptimalSplit best =
            OptimalSplitSolver(soc, intensities).solve();
        for (int probe = 0; probe < 50; ++probe) {
            std::vector<double> f = rng.simplex(3);
            Usecase u("probe",
                      {IpWork{f[0], intensities[0]},
                       IpWork{f[1], intensities[1]},
                       IpWork{f[2], intensities[2]}});
            double perf = GablesModel::evaluate(soc, u).attainable;
            EXPECT_LE(perf, best.attainable * (1.0 + 1e-9))
                << "trial " << trial << " probe " << probe;
        }
    }
}

TEST(OptimalSplit, MemoryConstrainedPrefersHighIntensityIps)
{
    // Two identical IPs except intensity of the work differs; with
    // memory the binding resource, the high-intensity IP must carry
    // more work.
    SocSpec soc("mem", 100e9, 2e9,
                {IpSpec{"A", 1.0, 100e9}, IpSpec{"B", 1.0, 100e9}});
    OptimalSplit r = OptimalSplitSolver(soc, {8.0, 0.5}).solve();
    EXPECT_GT(r.fractions[0], r.fractions[1]);
}

TEST(OptimalSplit, InfiniteIntensityWorkIsFree)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    SocSpec soc = SocCatalog::paperTwoIp();
    OptimalSplit r = OptimalSplitSolver(soc, {inf, inf}).solve();
    // No memory traffic at all: aggregate compute 240 Gops/s.
    EXPECT_NEAR(r.attainable, 240e9, 240e9 * 1e-9);
}

TEST(OptimalSplit, PlaceableWorkScalesLinearly)
{
    SocSpec soc = SocCatalog::snapdragon835();
    OptimalSplitSolver solver(soc, {4.0, 4.0, 4.0});
    double w1 = solver.placeableWork(1.0);
    double w2 = solver.placeableWork(2.0);
    EXPECT_NEAR(w2, 2.0 * w1, w1 * 1e-9);
}

TEST(OptimalSplit, InvalidInputsRejected)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    EXPECT_THROW(OptimalSplitSolver(soc, {1.0}), FatalError);
    EXPECT_THROW(OptimalSplitSolver(soc, {1.0, 0.0}), FatalError);
}

TEST(OptimalSplit, BudgetRoundingBelowZeroStopsTheFill)
{
    // A pair from the serve benchmark's advise mix: after IP[1] and
    // IP[2] are filled the byte budget rounds to a hair below zero,
    // and the fill used to hand IP[0] a negative fraction (the
    // Usecase constructor then threw "fraction f[0] must be in
    // [0, 1]").
    SocSpec soc("seed 4 pair 238", 0x1.ca0e20750f4fcp+33,
                0x1.0309800429e75p+34,
                {IpSpec{"IP0", 1.0, 0x1.c5aa64bd5f44cp+33},
                 IpSpec{"IP1", 0x1.32ca4ec705736p+5, 0x1.a457484d6c219p+34},
                 IpSpec{"IP2", 0x1.4f61e9c1680ap+4, 0x1.5b6a5433d31a3p+32}});
    OptimalSplitSolver solver(
        soc, {0x1.031abca12a5c1p+1, 0x1.30fd794fedd5bp+5,
              0x1.7dbc01a75e3f4p+1});
    OptimalSplit r = solver.solve();
    for (double f : r.fractions) {
        EXPECT_GE(f, 0.0);
        EXPECT_LE(f, 1.0);
    }
    EXPECT_EQ(r.fractions[0], 0.0);
    EXPECT_NEAR(r.attainable, solver.placeableWork(1.0),
                solver.placeableWork(1.0) * 1e-9);
}

TEST(OptimalSplit, GeneratedInputsGiveValidFractions)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    Rng rng(0x5911);
    for (int c = 0; c < 2000; ++c) {
        SCOPED_TRACE("case " + std::to_string(c));
        const size_t n = static_cast<size_t>(rng.uniformInt(1, 16));
        std::vector<IpSpec> ips;
        std::vector<double> intensities;
        for (size_t i = 0; i < n; ++i) {
            // Bandwidths skewed over four decades around the memory
            // interface's.
            ips.push_back(IpSpec{"IP" + std::to_string(i),
                                 i == 0 ? 1.0 : rng.uniform(0.5, 40.0),
                                 rng.logUniform(1e8, 1e12)});
            intensities.push_back(rng.uniformInt(0, 7) == 0
                                      ? inf
                                      : rng.logUniform(0.05, 100.0));
        }
        SocSpec soc("generated", rng.uniform(4e9, 16e9),
                    rng.logUniform(1e9, 1e11), std::move(ips));
        std::optional<OptimalSplit> r;
        ASSERT_NO_THROW(
            r.emplace(OptimalSplitSolver(soc, intensities).solve()));
        ASSERT_EQ(r->fractions.size(), n);
        for (double f : r->fractions) {
            EXPECT_GE(f, 0.0);
            EXPECT_LE(f, 1.0);
        }
        EXPECT_NEAR(std::accumulate(r->fractions.begin(),
                                    r->fractions.end(), 0.0),
                    1.0, 1e-12);
    }
}

} // namespace
} // namespace gables
