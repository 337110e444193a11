/**
 * @file
 * Tests for Monte-Carlo robustness analysis.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/robustness.h"
#include "core/gables.h"
#include "util/rng.h"
#include "soc/catalog.h"
#include "util/logging.h"

namespace gables {
namespace {

TEST(Robustness, DeterministicForFixedSeed)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    Robustness::Options opts;
    opts.samples = 200;
    opts.seed = 42;
    RobustnessReport a = Robustness::analyze(soc, u, opts);
    RobustnessReport b = Robustness::analyze(soc, u, opts);
    EXPECT_DOUBLE_EQ(a.mean, b.mean);
    EXPECT_DOUBLE_EQ(a.p5, b.p5);
    EXPECT_DOUBLE_EQ(a.p95, b.p95);
}

TEST(Robustness, QuantilesOrdered)
{
    SocSpec soc = SocCatalog::snapdragon835();
    Usecase u("u", {IpWork{0.2, 4.0}, IpWork{0.7, 8.0},
                    IpWork{0.1, 1.0}});
    RobustnessReport r = Robustness::analyze(soc, u);
    EXPECT_LE(r.p5, r.p50);
    EXPECT_LE(r.p50, r.p95);
    EXPECT_GT(r.p5, 0.0);
    EXPECT_EQ(r.samples, 1000);
}

TEST(Robustness, NoJitterCollapsesToNominal)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    Robustness::Options opts;
    opts.samples = 50;
    opts.intensityJitter = 1.0;
    opts.fractionJitter = 1.0;
    RobustnessReport r = Robustness::analyze(soc, u, opts);
    EXPECT_NEAR(r.mean, r.nominal, r.nominal * 1e-12);
    EXPECT_NEAR(r.p5, r.p95, r.nominal * 1e-12);
}

TEST(Robustness, BalancedDesignIsFragile)
{
    // Figure 6d sits at the intersection of all three rooflines:
    // most perturbations knock it off the peak, so the median and
    // mean fall visibly below nominal and the downside tail is deep
    // (the cost of perfect balance). The upside tail is real too —
    // jitter can land on a better work split — but small.
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("6d", 0.75, 8.0, 8.0);
    RobustnessReport r = Robustness::analyze(soc, u);
    EXPECT_DOUBLE_EQ(r.nominal, 160e9);
    EXPECT_LT(r.p50, r.nominal * 0.9);
    EXPECT_LT(r.mean, r.nominal * 0.9);
    EXPECT_LT(r.p5, r.nominal * 0.6);  // deep downside
    EXPECT_LT(r.p95, r.nominal * 1.5); // shallow upside
}

TEST(Robustness, TargetProbability)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    Usecase u = Usecase::twoIp("6d", 0.75, 8.0, 8.0);
    Robustness::Options opts;
    opts.samples = 500;
    opts.target = 1e9; // trivially met
    EXPECT_DOUBLE_EQ(
        Robustness::analyze(soc, u, opts).meetsTargetProbability,
        1.0);
    opts.target = 500e9; // unreachable under any bounded jitter
    EXPECT_DOUBLE_EQ(
        Robustness::analyze(soc, u, opts).meetsTargetProbability,
        0.0);
    opts.target = 100e9; // sometimes met
    double p = Robustness::analyze(soc, u, opts)
                   .meetsTargetProbability;
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
}

TEST(Robustness, BottleneckSharesSumToOne)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6b", 0.75, 8.0, 0.1);
    RobustnessReport r = Robustness::analyze(soc, u);
    double sum = 0.0;
    for (const auto &[ip, share] : r.bottleneckShare) {
        EXPECT_GE(ip, -1);
        EXPECT_LE(ip, 1);
        sum += share;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    // Figure 6b is deep in memory-bound territory: the memory
    // interface dominates even under jitter.
    EXPECT_GT(r.bottleneckShare.at(-1), 0.5);
}

TEST(Robustness, IdleIpsStayIdle)
{
    SocSpec soc = SocCatalog::snapdragon835();
    Usecase u("u", {IpWork{1.0, 8.0}, IpWork{0.0, 1.0},
                    IpWork{0.0, 1.0}});
    RobustnessReport r = Robustness::analyze(soc, u);
    // With only the CPU active, the bottleneck is always IP 0 or
    // memory, never the idle GPU/DSP.
    for (const auto &[ip, share] : r.bottleneckShare)
        EXPECT_TRUE(ip == 0 || ip == -1) << "ip " << ip;
}

TEST(Robustness, InvalidOptionsRejected)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.5, 1.0, 1.0);
    Robustness::Options opts;
    opts.samples = 0;
    EXPECT_THROW(Robustness::analyze(soc, u, opts), FatalError);
    opts.samples = 10;
    opts.intensityJitter = 0.5;
    EXPECT_THROW(Robustness::analyze(soc, u, opts), FatalError);
}

// analyze() evaluates samples on packs; its report must equal, bit
// for bit, one GablesModel::evaluate() per sample on a rebuilt
// usecase drawn from the same RNG stream. 203 samples end in a
// partial pack.
TEST(Robustness, MatchesPerSampleModelLoopBitwise)
{
    SocSpec soc = SocCatalog::snapdragon835();
    Usecase u("u", {IpWork{0.2, 4.0}, IpWork{0.7, 8.0},
                    IpWork{0.1, 1.0}});
    Robustness::Options opts;
    opts.samples = 203;
    opts.seed = 7;
    opts.target = GablesModel::evaluate(soc, u).attainable;
    RobustnessReport r = Robustness::analyze(soc, u, opts);

    Rng rng(opts.seed);
    std::vector<double> perf;
    std::map<int, int> bottlenecks;
    int meets = 0;
    for (int s = 0; s < opts.samples; ++s) {
        std::vector<IpWork> work(u.numIps());
        double sum = 0.0;
        for (size_t i = 0; i < u.numIps(); ++i) {
            double f_scale = rng.logUniform(1.0 / opts.fractionJitter,
                                            opts.fractionJitter);
            double i_scale = rng.logUniform(1.0 / opts.intensityJitter,
                                            opts.intensityJitter);
            work[i] = IpWork{u.at(i).fraction * f_scale,
                             u.at(i).intensity * i_scale};
            sum += work[i].fraction;
        }
        for (IpWork &w : work)
            w.fraction /= sum;
        GablesResult res =
            GablesModel::evaluate(soc, Usecase("u", std::move(work)));
        perf.push_back(res.attainable);
        bottlenecks[res.bottleneckIp]++;
        meets += res.attainable >= opts.target ? 1 : 0;
    }
    std::sort(perf.begin(), perf.end());
    double total = 0.0;
    for (double p : perf)
        total += p;
    auto quantile = [&](double q) {
        double pos = q * (perf.size() - 1);
        size_t lo = static_cast<size_t>(pos);
        size_t hi = std::min(lo + 1, perf.size() - 1);
        double t = pos - static_cast<double>(lo);
        return perf[lo] * (1.0 - t) + perf[hi] * t;
    };

    EXPECT_EQ(r.mean, total / perf.size());
    EXPECT_EQ(r.p5, quantile(0.05));
    EXPECT_EQ(r.p50, quantile(0.50));
    EXPECT_EQ(r.p95, quantile(0.95));
    EXPECT_EQ(r.meetsTargetProbability,
              static_cast<double>(meets) / opts.samples);
    ASSERT_EQ(r.bottleneckShare.size(), bottlenecks.size());
    for (const auto &[ip, count] : bottlenecks)
        EXPECT_EQ(r.bottleneckShare.at(ip),
                  static_cast<double>(count) / opts.samples)
            << "ip " << ip;
}

} // namespace
} // namespace gables
