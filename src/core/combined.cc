#include "core/combined.h"

#include "core/evaluator.h"
#include "util/logging.h"

namespace gables {

std::string
CombinedResult::bottleneckLabel(const SocSpec &soc,
                                const InterconnectModel *ic) const
{
    switch (bottleneck) {
      case CombinedBottleneck::Ip: {
        const IpSpec &ip = soc.ip(static_cast<size_t>(bottleneckIp));
        const IpTiming &t = ips[static_cast<size_t>(bottleneckIp)];
        return ip.name + (t.computeTime >= t.transferTime
                              ? " compute (Ai*Ppeak)"
                              : " link bandwidth (Bi)");
      }
      case CombinedBottleneck::Bus:
        if (ic != nullptr)
            return "bus '" +
                   ic->buses()[static_cast<size_t>(bottleneckBus)]
                       .name +
                   "'";
        return "bus " + std::to_string(bottleneckBus);
      case CombinedBottleneck::Memory:
        return "memory interface (Bpeak, post-SRAM)";
    }
    return "unknown";
}

void
CombinedModel::setMemSide(MemSideMemory memside)
{
    memside_ = std::move(memside);
}

void
CombinedModel::setInterconnect(InterconnectModel interconnect)
{
    interconnect_ = std::move(interconnect);
}

CombinedResult
CombinedModel::evaluate(const SocSpec &soc, const Usecase &usecase) const
{
    if (memside_ && memside_->missRatios().size() != soc.numIps())
        fatal("combined model: memside/SoC IP count mismatch");

    // The memory interface sees the filtered traffic mi * Di (Eq. 15);
    // the buses see the full Di (Eq. 16), since the SRAM sits on the
    // memory side of the interconnect.
    SharedResources shared;
    if (memside_)
        shared.dramWeights = &memside_->missRatios();
    if (interconnect_) {
        shared.buses = &interconnect_->buses();
        shared.use = &interconnect_->useMatrix();
    }
    GablesEvaluator ev(soc, usecase, shared);
    GablesResult base = ev.evaluate();

    CombinedResult result;
    result.attainable = base.attainable;
    result.ips = std::move(base.ips);
    result.busTimes = ev.busTimes(0);
    result.memoryTime = base.memoryTime;
    result.filteredBytes = base.totalDataBytes;
    result.bottleneckIp = base.bottleneckIp;
    result.bottleneckBus = base.bottleneckBus;
    result.bottleneck = base.bottleneck == BottleneckKind::Memory
                            ? CombinedBottleneck::Memory
                        : base.bottleneck == BottleneckKind::Bus
                            ? CombinedBottleneck::Bus
                            : CombinedBottleneck::Ip;
    return result;
}

} // namespace gables
