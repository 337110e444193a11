#include "core/memside.h"

#include <algorithm>

#include "core/evaluator.h"
#include "util/logging.h"

namespace gables {

MemSideMemory::MemSideMemory(std::vector<double> miss_ratios)
    : missRatios_(std::move(miss_ratios))
{
    for (size_t i = 0; i < missRatios_.size(); ++i) {
        double m = missRatios_[i];
        if (!(m >= 0.0 && m <= 1.0))
            fatal("memory-side miss ratio m[" + std::to_string(i) +
                  "] must be in [0, 1]");
    }
}

MemSideMemory
MemSideMemory::uniform(size_t n, double miss_ratio)
{
    return MemSideMemory(std::vector<double>(n, miss_ratio));
}

GablesResult
MemSideMemory::evaluate(const SocSpec &soc, const Usecase &usecase) const
{
    if (missRatios_.size() != soc.numIps())
        fatal("memory-side extension has " +
              std::to_string(missRatios_.size()) +
              " miss ratios but SoC has " + std::to_string(soc.numIps()) +
              " IPs");
    // The DRAM row carries the filtered demand mi * Di (paper Eq. 15).
    SharedResources shared;
    shared.dramWeights = &missRatios_;
    return GablesEvaluator(soc, usecase, shared).evaluate();
}

double
fractionalFitMissRatio(double working_set_bytes, double capacity_bytes)
{
    if (!(working_set_bytes >= 0.0) || !(capacity_bytes >= 0.0))
        fatal("fractionalFitMissRatio: sizes must be non-negative");
    if (working_set_bytes == 0.0)
        return 0.0;
    double miss = 1.0 - capacity_bytes / working_set_bytes;
    return std::clamp(miss, 0.0, 1.0);
}

} // namespace gables
