#include "core/serialized.h"

#include <algorithm>

#include "util/logging.h"
#include "util/math_util.h"

namespace gables {

SerializedResult
SerializedModel::evaluate(const SocSpec &soc, const Usecase &usecase)
{
    const GablesResult base = GablesModel::evaluate(soc, usecase);

    SerializedResult result;
    result.ipTimes.resize(base.ips.size());
    double total = 0.0;
    double worst = -1.0;
    for (size_t i = 0; i < base.ips.size(); ++i) {
        // T'IP[i] = max(Di/Bpeak, Di/Bi, Ci) (paper Eq. 18): the
        // kernel's per-IP terms plus the off-chip transfer. Idle IPs
        // carry +0.0 in every term.
        const IpTiming &ip = base.ips[i];
        const double t = std::max(
            {ip.dataBytes / soc.bpeak(), ip.transferTime, ip.computeTime});
        result.ipTimes[i] = t;
        total += t;
        if (t > worst) {
            worst = t;
            result.dominantIp = static_cast<int>(i);
        }
    }
    GABLES_ASSERT(total > 0.0, "serialized usecase has zero total time");
    result.attainable = 1.0 / total;
    result.dominantShare =
        shareOfSum(result.ipTimes, result.dominantIp, total);
    return result;
}

double
SerializedModel::concurrencySpeedup(const SocSpec &soc,
                                    const Usecase &usecase)
{
    double concurrent = GablesModel::evaluate(soc, usecase).attainable;
    double serialized = evaluate(soc, usecase).attainable;
    return concurrent / serialized;
}

} // namespace gables
