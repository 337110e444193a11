/**
 * @file
 * The kernel against a frozen copy of the arithmetic it replaced
 * (tests/reference_model.h): GablesModel, MemSideMemory,
 * InterconnectModel, CombinedModel and SerializedModel must give the
 * reference's bits in every result field over generated inputs —
 * 1-16 IPs, idle lanes with fi = 0 and fi = -0.0, Ii = inf, skewed
 * bandwidths, miss ratios of 0, 1 and uniform draws, and 0-4 buses
 * with random Use rows (a bus no IP uses, and a bus that mirrors
 * DRAM, included).
 *
 * Two differences are by design and are recognised by name:
 *  - a binding bus is now BottleneckKind::Bus with bottleneckBus
 *    set, where the reference reported IpBandwidth with IP -1;
 *  - the reference's interconnect compared buses against
 *    1 / attainable, not the critical time itself. Where that 1-ulp
 *    rounding flips a bus-versus-base tie, the kernel's rule (a bus
 *    binds only when strictly slower) wins.
 * Any other mismatch fails.
 *
 * The second half fuzzes every public evaluate with extreme inputs
 * (rates of 1e+-300, denormal fractions, Ii = inf): each call returns
 * a non-NaN bound or throws FatalError.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/combined.h"
#include "core/evaluator.h"
#include "core/gables.h"
#include "core/interconnect.h"
#include "core/memside.h"
#include "core/phased.h"
#include "core/serialized.h"
#include "reference_model.h"
#include "util/logging.h"
#include "util/rng.h"

namespace gables {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/** One generated input: a pair plus the extension parameters. */
struct Case {
    SocSpec soc;
    Usecase usecase;
    std::vector<double> missRatios;
    std::vector<BusSpec> buses;
    std::vector<std::vector<bool>> use;
};

Case
randomCase(Rng &rng)
{
    const size_t n = static_cast<size_t>(rng.uniformInt(1, 16));
    std::vector<IpSpec> ips;
    for (size_t i = 0; i < n; ++i) {
        ips.push_back(IpSpec{"ip" + std::to_string(i),
                             i == 0 ? 1.0 : rng.logUniform(0.05, 200.0),
                             rng.logUniform(1e6, 1e13)});
    }
    const double bpeak = rng.logUniform(1e7, 1e12);
    SocSpec soc("oracle", rng.logUniform(1e6, 1e13), bpeak, ips);

    std::vector<double> f = rng.simplex(n);
    std::vector<IpWork> work(n);
    for (size_t i = 0; i < n; ++i) {
        work[i].fraction = f[i];
        work[i].intensity = rng.uniformInt(0, 5) == 0
                                ? kInf
                                : rng.logUniform(1e-3, 1e4);
    }
    // Idle about a third of the lanes (never IP[0]): fi = +0.0 or
    // -0.0, with an intensity that would be invalid for active work.
    for (size_t i = n; i-- > 1;) {
        if (rng.uniformInt(0, 2) != 0)
            continue;
        work[0].fraction += work[i].fraction;
        work[i].fraction = rng.uniformInt(0, 1) ? 0.0 : -0.0;
        work[i].intensity = rng.uniformInt(0, 1) ? 1.0 : -2.0;
    }
    Usecase usecase("oracle", work);

    std::vector<double> miss(n);
    for (double &m : miss) {
        const int64_t k = rng.uniformInt(0, 3);
        m = k == 0 ? 0.0 : k == 1 ? 1.0 : rng.uniform();
    }

    const size_t q = static_cast<size_t>(rng.uniformInt(0, 4));
    std::vector<BusSpec> buses;
    std::vector<std::vector<bool>> use(n, std::vector<bool>(q, false));
    for (size_t j = 0; j < q; ++j) {
        const int64_t shape = rng.uniformInt(0, 4);
        // Bus 0 is sometimes a mirror of DRAM: every IP, bandwidth
        // Bpeak, so its time ties the memory time exactly.
        const bool mirror = j == 0 && shape == 0;
        const bool unused = shape == 1;
        buses.push_back(BusSpec{"bus" + std::to_string(j),
                                mirror ? bpeak
                                       : bpeak * rng.logUniform(0.01, 10.0)});
        for (size_t i = 0; i < n; ++i)
            use[i][j] = mirror || (!unused && rng.uniformInt(0, 1) == 1);
    }
    return Case{std::move(soc), std::move(usecase), std::move(miss),
                std::move(buses), std::move(use)};
}

/** @return "" when every field of @p got has @p want's bits, else the
 * first differing field. */
std::string
diff(const IpTiming &got, const IpTiming &want)
{
    if (bits(got.computeTime) != bits(want.computeTime))
        return "computeTime";
    if (bits(got.dataBytes) != bits(want.dataBytes))
        return "dataBytes";
    if (bits(got.transferTime) != bits(want.transferTime))
        return "transferTime";
    if (bits(got.time) != bits(want.time))
        return "time";
    if (bits(got.perfBound) != bits(want.perfBound))
        return "perfBound";
    return "";
}

std::string
diff(const std::vector<IpTiming> &got, const std::vector<IpTiming> &want)
{
    if (got.size() != want.size())
        return "ips.size";
    for (size_t i = 0; i < got.size(); ++i) {
        std::string d = diff(got[i], want[i]);
        if (!d.empty())
            return "ips[" + std::to_string(i) + "]." + d;
    }
    return "";
}

std::string
diff(const std::vector<double> &got, const std::vector<double> &want,
     const std::string &what)
{
    if (got.size() != want.size())
        return what + ".size";
    for (size_t i = 0; i < got.size(); ++i) {
        if (bits(got[i]) != bits(want[i]))
            return what + "[" + std::to_string(i) + "]";
    }
    return "";
}

std::string
diff(const GablesResult &got, const GablesResult &want)
{
    if (bits(got.attainable) != bits(want.attainable))
        return "attainable";
    if (bits(got.memoryTime) != bits(want.memoryTime))
        return "memoryTime";
    if (bits(got.memoryPerfBound) != bits(want.memoryPerfBound))
        return "memoryPerfBound";
    if (bits(got.averageIntensity) != bits(want.averageIntensity))
        return "averageIntensity";
    if (bits(got.totalDataBytes) != bits(want.totalDataBytes))
        return "totalDataBytes";
    if (got.bottleneckIp != want.bottleneckIp)
        return "bottleneckIp";
    if (got.bottleneck != want.bottleneck)
        return "bottleneck";
    if (got.bottleneckBus != want.bottleneckBus)
        return "bottleneckBus";
    return diff(got.ips, want.ips);
}

std::string
diff(const CombinedResult &got, const CombinedResult &want)
{
    if (bits(got.attainable) != bits(want.attainable))
        return "attainable";
    if (bits(got.memoryTime) != bits(want.memoryTime))
        return "memoryTime";
    if (bits(got.filteredBytes) != bits(want.filteredBytes))
        return "filteredBytes";
    if (got.bottleneck != want.bottleneck)
        return "bottleneck";
    if (got.bottleneckIp != want.bottleneckIp)
        return "bottleneckIp";
    if (got.bottleneckBus != want.bottleneckBus)
        return "bottleneckBus";
    std::string d = diff(got.busTimes, want.busTimes, "busTimes");
    return d.empty() ? diff(got.ips, want.ips) : d;
}

std::string
diff(const SerializedResult &got, const SerializedResult &want)
{
    if (bits(got.attainable) != bits(want.attainable))
        return "attainable";
    if (got.dominantIp != want.dominantIp)
        return "dominantIp";
    if (bits(got.dominantShare) != bits(want.dominantShare))
        return "dominantShare";
    return diff(got.ipTimes, want.ipTimes, "ipTimes");
}

/** The reference's interconnect with a binding bus restated in the
 * kernel's terms: kind Bus and the bus index on the base result. */
InterconnectResult
restateBusKind(InterconnectResult want)
{
    if (want.bottleneckBus >= 0) {
        want.base.bottleneck = BottleneckKind::Bus;
        want.base.bottleneckBus = want.bottleneckBus;
    }
    return want;
}

/**
 * The named exception: the reference decides a bus against
 * 1 / (1 / Tcrit), the kernel against Tcrit. @return true when the
 * two disagree on whether a bus binds only because the worst bus time
 * lies between those two values (inclusive).
 */
bool
isInterconnectTieFlip(const InterconnectResult &got,
                      const InterconnectResult &want,
                      const GablesResult &base)
{
    if ((got.bottleneckBus >= 0) == (want.bottleneckBus >= 0))
        return false;
    double crit = base.memoryTime;
    for (const IpTiming &t : base.ips)
        crit = std::max(crit, t.time);
    const double rounded = 1.0 / base.attainable;
    double worst = 0.0;
    for (double t : want.busTimes)
        worst = std::max(worst, t);
    return std::min(crit, rounded) <= worst &&
           worst <= std::max(crit, rounded);
}

TEST(KernelOracle, WrappersMatchFrozenArithmeticBitwise)
{
    constexpr int kCases = 3000;
    Rng rng(0x0AC1E);
    int bus_binds = 0;
    int mirror_ties = 0;
    int tie_flips = 0;
    for (int c = 0; c < kCases; ++c) {
        const Case k = randomCase(rng);
        const SocSpec &soc = k.soc;
        const Usecase &u = k.usecase;
        SCOPED_TRACE("case " + std::to_string(c));

        const GablesResult base = GablesModel::evaluate(soc, u);
        const GablesResult ref_base = reference::gablesEvaluate(soc, u);
        EXPECT_EQ(diff(base, ref_base), "") << "GablesModel";

        const MemSideMemory memside(k.missRatios);
        EXPECT_EQ(diff(memside.evaluate(soc, u),
                       reference::memsideEvaluate(k.missRatios, soc, u)),
                  "")
            << "MemSideMemory";

        EXPECT_EQ(diff(SerializedModel::evaluate(soc, u),
                       reference::serializedEvaluate(soc, u)),
                  "")
            << "SerializedModel";

        CombinedModel only_memside;
        only_memside.setMemSide(memside);
        EXPECT_EQ(diff(CombinedModel().evaluate(soc, u),
                       reference::combinedEvaluate(nullptr, nullptr,
                                                   nullptr, soc, u)),
                  "")
            << "CombinedModel (bare)";
        EXPECT_EQ(diff(only_memside.evaluate(soc, u),
                       reference::combinedEvaluate(&k.missRatios, nullptr,
                                                   nullptr, soc, u)),
                  "")
            << "CombinedModel (memside)";

        if (k.buses.empty())
            continue;
        const InterconnectModel ic(k.buses, k.use);
        const InterconnectResult got = ic.evaluate(soc, u);
        const InterconnectResult want = restateBusKind(
            reference::interconnectEvaluate(k.buses, k.use, soc, u));
        EXPECT_EQ(diff(got.busTimes, want.busTimes, "busTimes"), "")
            << "InterconnectModel";
        bus_binds += got.bottleneckBus >= 0;
        if (k.use[0][0] && bits(k.buses[0].bandwidth) == bits(soc.bpeak()) &&
            bits(got.busTimes[0]) == bits(got.base.memoryTime))
            ++mirror_ties;
        if (isInterconnectTieFlip(got, want, ref_base)) {
            // The kernel's rule: the base result stands.
            ++tie_flips;
            EXPECT_EQ(got.bottleneckBus, -1) << "tie flip binds a bus";
            EXPECT_EQ(diff(got.base, ref_base), "")
                << "InterconnectModel (tie flip)";
        } else {
            EXPECT_EQ(got.bottleneckBus, want.bottleneckBus)
                << "InterconnectModel";
            EXPECT_EQ(diff(got.base, want.base), "") << "InterconnectModel";
        }

        CombinedModel only_ic;
        only_ic.setInterconnect(ic);
        CombinedModel both;
        both.setMemSide(memside);
        both.setInterconnect(ic);
        EXPECT_EQ(diff(only_ic.evaluate(soc, u),
                       reference::combinedEvaluate(nullptr, &k.buses,
                                                   &k.use, soc, u)),
                  "")
            << "CombinedModel (interconnect)";
        EXPECT_EQ(diff(both.evaluate(soc, u),
                       reference::combinedEvaluate(&k.missRatios, &k.buses,
                                                   &k.use, soc, u)),
                  "")
            << "CombinedModel (both)";
    }
    // The generator must reach the cases the exceptions are about.
    EXPECT_GT(bus_binds, kCases / 20);
    EXPECT_GT(mirror_ties, 0);
    RecordProperty("interconnect_tie_flips", tie_flips);
}

TEST(KernelOracle, BusMirroringDramLosesTheTie)
{
    // A bus that carries every IP at bandwidth Bpeak has exactly the
    // memory time. Memory wins ties, and a bus binds only when
    // strictly slower, so the memory interface is the bottleneck.
    SocSpec soc("tie", 40e9, 10e9, {{"cpu", 1.0, 6e9}, {"gpu", 5.0, 15e9}});
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.1);
    InterconnectModel ic({BusSpec{"mirror", 10e9}}, {{true}, {true}});
    InterconnectResult r = ic.evaluate(soc, u);
    EXPECT_EQ(bits(r.busTimes[0]), bits(r.base.memoryTime));
    EXPECT_EQ(r.bottleneckBus, -1);
    EXPECT_EQ(r.base.bottleneck, BottleneckKind::Memory);
    EXPECT_EQ(bits(r.base.attainable),
              bits(GablesModel::evaluate(soc, u).attainable));
}

// ---------------------------------------------------------------
// Extreme-input fuzz: non-NaN or FatalError, never a silent NaN.
// ---------------------------------------------------------------

/** A rate of 1e+-300 sometimes, else a wide log-uniform draw. */
double
extremeRate(Rng &rng)
{
    switch (rng.uniformInt(0, 5)) {
      case 0:
        return 1e300;
      case 1:
        return 1e-300;
      default:
        return rng.logUniform(1e-300, 1e300);
    }
}

struct ExtremeCase {
    double ppeak;
    double bpeak;
    std::vector<IpSpec> ips;
    std::vector<IpWork> work;
};

ExtremeCase
extremeCase(Rng &rng)
{
    ExtremeCase e;
    const size_t n = static_cast<size_t>(rng.uniformInt(1, 16));
    e.ppeak = extremeRate(rng);
    e.bpeak = extremeRate(rng);
    for (size_t i = 0; i < n; ++i) {
        e.ips.push_back(IpSpec{"ip" + std::to_string(i),
                               i == 0 ? 1.0 : rng.logUniform(1e-3, 1e12),
                               extremeRate(rng)});
    }
    std::vector<double> f = rng.simplex(n);
    for (size_t i = 0; i < n; ++i) {
        IpWork w{f[i], 1.0};
        const int64_t k = rng.uniformInt(0, 4);
        w.intensity = k == 0 ? kInf : k == 1 ? extremeRate(rng)
                                             : rng.logUniform(1e-3, 1e4);
        e.work.push_back(w);
    }
    // Denormal fractions: move all but a denormal sliver of an IP's
    // share to IP[0].
    for (size_t i = 1; i < n; ++i) {
        if (rng.uniformInt(0, 3) == 0) {
            const double sliver = 5e-324 * rng.uniformInt(1, 1000);
            e.work[0].fraction += e.work[i].fraction - sliver;
            e.work[i].fraction = sliver;
        }
    }
    return e;
}

void
expectNotNan(const GablesResult &r, const std::string &who)
{
    EXPECT_FALSE(std::isnan(r.attainable)) << who;
    EXPECT_FALSE(std::isnan(r.memoryTime)) << who;
    EXPECT_FALSE(std::isnan(r.memoryPerfBound)) << who;
    EXPECT_FALSE(std::isnan(r.averageIntensity)) << who;
    EXPECT_FALSE(std::isnan(r.totalDataBytes)) << who;
    for (const IpTiming &t : r.ips) {
        EXPECT_FALSE(std::isnan(t.computeTime)) << who;
        EXPECT_FALSE(std::isnan(t.dataBytes)) << who;
        EXPECT_FALSE(std::isnan(t.transferTime)) << who;
        EXPECT_FALSE(std::isnan(t.time)) << who;
        EXPECT_FALSE(std::isnan(t.perfBound)) << who;
    }
}

void
expectNotNan(const std::vector<double> &v, const std::string &who)
{
    for (double x : v)
        EXPECT_FALSE(std::isnan(x)) << who;
}

TEST(EvaluateFuzz, ExtremeInputsNeverYieldNan)
{
    constexpr int kCases = 2000;
    Rng rng(0xF022);
    int evaluated = 0;
    int rejected = 0;
    for (int c = 0; c < kCases; ++c) {
        const ExtremeCase e = extremeCase(rng);
        SCOPED_TRACE("case " + std::to_string(c));
        std::optional<SocSpec> soc;
        std::optional<Usecase> u;
        try {
            soc.emplace("fuzz", e.ppeak, e.bpeak, e.ips);
            u.emplace("fuzz", e.work);
        } catch (const FatalError &) {
            ++rejected;
            continue;
        }
        ++evaluated;
        const size_t n = e.ips.size();
        const std::vector<double> miss(n, rng.uniform());
        std::vector<size_t> leaf(n);
        for (size_t i = 0; i < n; ++i)
            leaf[i] = i % 2;
        const InterconnectModel ic = InterconnectModel::hierarchy(
            {"left", "right"}, {extremeRate(rng), extremeRate(rng)}, leaf,
            extremeRate(rng));

        expectNotNan(GablesModel::evaluate(*soc, *u), "GablesModel");
        expectNotNan(MemSideMemory(miss).evaluate(*soc, *u), "MemSide");
        const InterconnectResult ir = ic.evaluate(*soc, *u);
        expectNotNan(ir.base, "Interconnect");
        expectNotNan(ir.busTimes, "Interconnect busTimes");
        CombinedModel combined;
        combined.setMemSide(MemSideMemory(miss));
        combined.setInterconnect(ic);
        const CombinedResult cr = combined.evaluate(*soc, *u);
        EXPECT_FALSE(std::isnan(cr.attainable)) << "Combined";
        EXPECT_FALSE(std::isnan(cr.memoryTime)) << "Combined";
        expectNotNan(cr.busTimes, "Combined busTimes");
        const SerializedResult sr = SerializedModel::evaluate(*soc, *u);
        EXPECT_FALSE(std::isnan(sr.attainable)) << "Serialized";
        expectNotNan(sr.ipTimes, "Serialized ipTimes");
        const PhasedUsecase phased(
            "fuzz", {Phase{"concurrent", 0.5, PhaseMode::Concurrent, *u},
                     Phase{"exclusive", 0.5, PhaseMode::Exclusive, *u}});
        EXPECT_FALSE(std::isnan(phased.evaluate(*soc).attainable))
            << "Phased";

        // Pack lanes: lane w gets IP w's rates scaled to an extreme;
        // a setter either accepts the value or throws.
        GablesEvaluator ev(*soc, *u);
        GablesEvalPack pack(ev);
        for (size_t w = 0; w < GablesEvalPack::kWidth; ++w) {
            try {
                pack.setPpeak(w, extremeRate(rng));
            } catch (const FatalError &) {
            }
            try {
                pack.setIpBandwidth(w, w % n, extremeRate(rng));
            } catch (const FatalError &) {
            }
            if (n > 1) {
                try {
                    pack.setAcceleration(w, 1, rng.logUniform(1e-3, 1e12));
                } catch (const FatalError &) {
                }
            }
            pack.setBpeak(w, extremeRate(rng));
        }
        pack.run(GablesEvalPack::kWidth);
        GablesResult lane;
        for (size_t w = 0; w < GablesEvalPack::kWidth; ++w) {
            pack.result(w, lane);
            expectNotNan(lane, "pack lane " + std::to_string(w));
        }
    }
    // Both outcomes must be exercised.
    EXPECT_GT(evaluated, kCases / 4);
    EXPECT_GT(rejected, 0);
}

TEST(EvaluateFuzz, OverflowingPeakIsRejectedNotBlamedOnMemory)
{
    // Ai * Ppeak = 1e310 overflows: Ci would round to 0 and the bound
    // would read inf with the memory interface (carrying no bytes)
    // blamed. Every path that builds or mutates the pair refuses it.
    std::vector<IpSpec> ips = {{"cpu", 1.0, 1e9}, {"acc", 1e10, 1e9}};
    EXPECT_THROW(SocSpec("big", 1e300, 1e9, ips), FatalError);
    try {
        SocSpec("big", 1e300, 1e9, ips);
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("IP[1]"), std::string::npos)
            << err.what();
    }

    SocSpec soc("fine", 1e290, 1e9, ips);
    Usecase u("all on acc", {{0.0, 1.0}, {1.0, kInf}});
    GablesEvaluator ev(soc, u);
    EXPECT_THROW(ev.setPpeak(1e300), FatalError);
    EXPECT_THROW(ev.setAcceleration(1, 1e20), FatalError);
    EXPECT_EQ(ev.ppeak(), 1e290);
    EXPECT_EQ(ev.acceleration(1), 1e10);

    GablesEvalPack pack(ev);
    EXPECT_THROW(pack.setPpeak(3, 1e300), FatalError);
    EXPECT_THROW(pack.setAcceleration(5, 1, 1e20), FatalError);
    double accels[GablesEvalPack::kWidth];
    for (double &a : accels)
        a = 2.0;
    accels[6] = 1e20;
    EXPECT_THROW(pack.setAccelerationRow(1, accels, GablesEvalPack::kWidth),
                 FatalError);
    pack.run(GablesEvalPack::kWidth);
    for (size_t w = 0; w < GablesEvalPack::kWidth; ++w) {
        EXPECT_TRUE(std::isfinite(pack.attainable(w)));
        EXPECT_EQ(pack.bottleneckIp(w), 1);
    }
}

} // namespace
} // namespace gables
