/**
 * @file
 * A frozen copy of the Gables arithmetic as it stood before the
 * model was written once as the lane-width kernel
 * (core/evaluator.h): the base model (Eqs. 9-11), the memory-side
 * filter (Eq. 15), the interconnect (Eqs. 16-17), the combined
 * model, and serialized work (Eqs. 18-19), each as its own loop.
 *
 * Test-only. core_oracle_test compares every field of the wrappers'
 * results against these bit for bit over generated inputs, so a
 * rounding or attribution change in the kernel shows up as a named
 * mismatch. Do not "fix" anything here: its value is that it does
 * not move. The one known, intended divergence (the interconnect's
 * bus-versus-base tie, which this copy decides against
 * 1 / attainable) is recognised by the test, not patched here.
 */

#ifndef GABLES_TESTS_REFERENCE_MODEL_H
#define GABLES_TESTS_REFERENCE_MODEL_H

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/combined.h"
#include "core/gables.h"
#include "core/interconnect.h"
#include "core/serialized.h"
#include "util/logging.h"

namespace gables::reference {

inline void
checkPair(const SocSpec &soc, const Usecase &usecase)
{
    soc.validate();
    usecase.validate();
    if (usecase.numIps() != soc.numIps())
        fatal("usecase '" + usecase.name() + "' has " +
              std::to_string(usecase.numIps()) +
              " IP entries but SoC '" + soc.name() + "' has " +
              std::to_string(soc.numIps()) + " IPs");
}

/** GablesModel::evaluate. */
inline GablesResult
gablesEvaluate(const SocSpec &soc, const Usecase &usecase)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    checkPair(soc, usecase);

    GablesResult result;
    const size_t n = soc.numIps();
    result.ips.resize(n);

    double max_time = 0.0;
    double total_bytes = 0.0;

    for (size_t i = 0; i < n; ++i) {
        const IpWork &w = usecase.at(i);
        IpTiming &t = result.ips[i];
        if (w.fraction > 0.0) {
            t.computeTime = w.fraction / soc.ipPeakPerf(i);
            t.dataBytes =
                std::isinf(w.intensity) ? 0.0 : w.fraction / w.intensity;
            t.transferTime = t.dataBytes / soc.ip(i).bandwidth;
            t.time = std::max(t.transferTime, t.computeTime);
            t.perfBound = 1.0 / t.time;
        } else {
            t.perfBound = kInf;
        }
        total_bytes += t.dataBytes;
        max_time = std::max(max_time, t.time);
    }

    result.totalDataBytes = total_bytes;
    result.memoryTime = total_bytes / soc.bpeak();
    result.averageIntensity = usecase.averageIntensity();
    result.memoryPerfBound = result.memoryTime > 0.0
                                 ? 1.0 / result.memoryTime
                                 : kInf;

    max_time = std::max(max_time, result.memoryTime);
    result.attainable = 1.0 / max_time;

    if (result.memoryTime >= max_time) {
        result.bottleneckIp = -1;
        result.bottleneck = BottleneckKind::Memory;
    } else {
        for (size_t i = 0; i < n; ++i) {
            if (result.ips[i].time >= max_time) {
                result.bottleneckIp = static_cast<int>(i);
                result.bottleneck =
                    result.ips[i].computeTime >= result.ips[i].transferTime
                        ? BottleneckKind::IpCompute
                        : BottleneckKind::IpBandwidth;
                break;
            }
        }
    }
    return result;
}

/** MemSideMemory::evaluate. */
inline GablesResult
memsideEvaluate(const std::vector<double> &missRatios, const SocSpec &soc,
                const Usecase &usecase)
{
    if (missRatios.size() != soc.numIps())
        fatal("memory-side extension has " +
              std::to_string(missRatios.size()) +
              " miss ratios but SoC has " + std::to_string(soc.numIps()) +
              " IPs");

    GablesResult result = gablesEvaluate(soc, usecase);

    double filtered_bytes = 0.0;
    for (size_t i = 0; i < soc.numIps(); ++i)
        filtered_bytes += missRatios[i] * result.ips[i].dataBytes;

    result.totalDataBytes = filtered_bytes;
    result.memoryTime = filtered_bytes / soc.bpeak();
    result.memoryPerfBound =
        result.memoryTime > 0.0 ? 1.0 / result.memoryTime
                                : std::numeric_limits<double>::infinity();
    result.averageIntensity = filtered_bytes > 0.0
                                  ? 1.0 / filtered_bytes
                                  : std::numeric_limits<double>::infinity();

    double max_time = result.memoryTime;
    for (const IpTiming &t : result.ips)
        max_time = std::max(max_time, t.time);
    result.attainable = 1.0 / max_time;

    if (result.memoryTime >= max_time) {
        result.bottleneckIp = -1;
        result.bottleneck = BottleneckKind::Memory;
    } else {
        for (size_t i = 0; i < result.ips.size(); ++i) {
            if (result.ips[i].time >= max_time) {
                result.bottleneckIp = static_cast<int>(i);
                result.bottleneck =
                    result.ips[i].computeTime >=
                            result.ips[i].transferTime
                        ? BottleneckKind::IpCompute
                        : BottleneckKind::IpBandwidth;
                break;
            }
        }
    }
    return result;
}

/** InterconnectModel::evaluate. A binding bus is reported as
 * bottleneckIp = -1 with kind IpBandwidth, as it was then. */
inline InterconnectResult
interconnectEvaluate(const std::vector<BusSpec> &buses,
                     const std::vector<std::vector<bool>> &use,
                     const SocSpec &soc, const Usecase &usecase)
{
    if (use.size() != soc.numIps())
        fatal("interconnect use matrix has " + std::to_string(use.size()) +
              " rows but SoC has " + std::to_string(soc.numIps()) +
              " IPs");

    InterconnectResult result;
    result.base = gablesEvaluate(soc, usecase);
    result.busTimes.assign(buses.size(), 0.0);

    for (size_t j = 0; j < buses.size(); ++j) {
        double bytes = 0.0;
        for (size_t i = 0; i < soc.numIps(); ++i) {
            if (use[i][j])
                bytes += result.base.ips[i].dataBytes;
        }
        result.busTimes[j] = bytes / buses[j].bandwidth;
    }

    double max_time = 1.0 / result.base.attainable;
    double max_bus_time = 0.0;
    int worst_bus = -1;
    for (size_t j = 0; j < buses.size(); ++j) {
        if (result.busTimes[j] > max_bus_time) {
            max_bus_time = result.busTimes[j];
            worst_bus = static_cast<int>(j);
        }
    }

    if (max_bus_time > max_time) {
        result.bottleneckBus = worst_bus;
        result.base.attainable = 1.0 / max_bus_time;
        result.base.bottleneckIp = -1;
        result.base.bottleneck = BottleneckKind::IpBandwidth;
    }
    return result;
}

/** CombinedModel::evaluate. @p missRatios and @p buses / @p use are
 * null when that extension is not attached. */
inline CombinedResult
combinedEvaluate(const std::vector<double> *missRatios,
                 const std::vector<BusSpec> *buses,
                 const std::vector<std::vector<bool>> *use,
                 const SocSpec &soc, const Usecase &usecase)
{
    GablesResult base = gablesEvaluate(soc, usecase);

    CombinedResult result;
    result.ips = base.ips;

    if (missRatios && missRatios->size() != soc.numIps())
        fatal("combined model: memside/SoC IP count mismatch");
    double filtered = 0.0;
    for (size_t i = 0; i < base.ips.size(); ++i) {
        double m = missRatios ? (*missRatios)[i] : 1.0;
        filtered += m * base.ips[i].dataBytes;
    }
    result.filteredBytes = filtered;
    result.memoryTime = filtered / soc.bpeak();

    if (buses) {
        result.busTimes.assign(buses->size(), 0.0);
        for (size_t j = 0; j < buses->size(); ++j) {
            double bytes = 0.0;
            for (size_t i = 0; i < soc.numIps(); ++i) {
                if ((*use)[i][j])
                    bytes += base.ips[i].dataBytes;
            }
            result.busTimes[j] = bytes / (*buses)[j].bandwidth;
        }
    }

    double max_time = result.memoryTime;
    result.bottleneck = CombinedBottleneck::Memory;
    for (size_t i = 0; i < result.ips.size(); ++i) {
        if (result.ips[i].time > max_time) {
            max_time = result.ips[i].time;
            result.bottleneck = CombinedBottleneck::Ip;
            result.bottleneckIp = static_cast<int>(i);
            result.bottleneckBus = -1;
        }
    }
    for (size_t j = 0; j < result.busTimes.size(); ++j) {
        if (result.busTimes[j] > max_time) {
            max_time = result.busTimes[j];
            result.bottleneck = CombinedBottleneck::Bus;
            result.bottleneckBus = static_cast<int>(j);
            result.bottleneckIp = -1;
        }
    }
    result.attainable = 1.0 / max_time;
    return result;
}

/** SerializedModel::evaluate. */
inline SerializedResult
serializedEvaluate(const SocSpec &soc, const Usecase &usecase)
{
    soc.validate();
    usecase.validate();
    if (usecase.numIps() != soc.numIps())
        fatal("serialized model: usecase/SoC IP count mismatch");

    SerializedResult result;
    result.ipTimes.assign(soc.numIps(), 0.0);

    double total = 0.0;
    for (size_t i = 0; i < soc.numIps(); ++i) {
        const IpWork &w = usecase.at(i);
        if (w.fraction == 0.0)
            continue;
        double ci = w.fraction / soc.ipPeakPerf(i);
        double di =
            std::isinf(w.intensity) ? 0.0 : w.fraction / w.intensity;
        double t = std::max({di / soc.bpeak(), di / soc.ip(i).bandwidth,
                             ci});
        result.ipTimes[i] = t;
        total += t;
    }
    result.attainable = 1.0 / total;

    double worst = -1.0;
    for (size_t i = 0; i < result.ipTimes.size(); ++i) {
        if (result.ipTimes[i] > worst) {
            worst = result.ipTimes[i];
            result.dominantIp = static_cast<int>(i);
        }
    }
    result.dominantShare = worst / total;
    return result;
}

} // namespace gables::reference

#endif // GABLES_TESTS_REFERENCE_MODEL_H
