#include "core/gables.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/evaluator.h"
#include "util/logging.h"

namespace gables {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

void
validatePair(const SocSpec &soc, const Usecase &usecase)
{
    soc.validate();
    usecase.validate();
    if (usecase.numIps() != soc.numIps())
        fatal("usecase '" + usecase.name() + "' has " +
              std::to_string(usecase.numIps()) +
              " IP entries but SoC '" + soc.name() + "' has " +
              std::to_string(soc.numIps()) + " IPs");
}

std::string
toString(BottleneckKind kind)
{
    switch (kind) {
      case BottleneckKind::IpCompute:
        return "IP compute";
      case BottleneckKind::IpBandwidth:
        return "IP bandwidth";
      case BottleneckKind::Memory:
        return "memory interface";
      case BottleneckKind::Bus:
        return "bus bandwidth";
    }
    return "unknown";
}

std::string
GablesResult::bottleneckLabel(const SocSpec &soc) const
{
    if (bottleneck == BottleneckKind::Bus)
        return "bus[" + std::to_string(bottleneckBus) +
               "] bandwidth (Bbus)";
    if (bottleneckIp < 0)
        return "memory interface (Bpeak)";
    const IpSpec &ip = soc.ip(static_cast<size_t>(bottleneckIp));
    std::string who = ip.name.empty()
                          ? "IP[" + std::to_string(bottleneckIp) + "]"
                          : ip.name;
    return who + (bottleneck == BottleneckKind::IpCompute
                      ? " compute (Ai*Ppeak)"
                      : " link bandwidth (Bi)");
}

GablesResult
GablesModel::evaluate(const SocSpec &soc, const Usecase &usecase)
{
    return GablesEvaluator(soc, usecase).evaluate();
}

double
GablesModel::attainablePerfForm(const SocSpec &soc, const Usecase &usecase)
{
    validatePair(soc, usecase);

    double bound = kInf;
    for (size_t i = 0; i < soc.numIps(); ++i) {
        const IpWork &w = usecase.at(i);
        if (w.fraction == 0.0)
            continue; // omit the term to avoid divide-by-zero
        double roof = std::isinf(w.intensity)
                          ? soc.ipPeakPerf(i)
                          : std::min(soc.ip(i).bandwidth * w.intensity,
                                     soc.ipPeakPerf(i));
        bound = std::min(bound, roof / w.fraction);
    }

    double iavg = usecase.averageIntensity();
    if (!std::isinf(iavg))
        bound = std::min(bound, soc.bpeak() * iavg);

    GABLES_ASSERT(std::isfinite(bound),
                  "performance-form bound is not finite");
    return bound;
}

double
GablesModel::scaledIpRoofline(const SocSpec &soc, const Usecase &usecase,
                              size_t i, double intensity)
{
    validatePair(soc, usecase);
    double f = usecase.fraction(i);
    if (f == 0.0)
        return kInf;
    return std::min(soc.ip(i).bandwidth * intensity, soc.ipPeakPerf(i)) /
           f;
}

double
GablesModel::memoryRoofline(const SocSpec &soc, double intensity)
{
    return soc.bpeak() * intensity;
}

} // namespace gables
