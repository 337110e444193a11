#include "analysis/robustness.h"

#include <algorithm>
#include <cmath>

#include "core/evaluator.h"
#include "telemetry/span.h"
#include "util/logging.h"
#include "util/rng.h"

namespace gables {

RobustnessReport
Robustness::analyze(const SocSpec &soc, const Usecase &usecase,
                    const Options &options)
{
    GABLES_SPAN("robust.analyze");
    if (options.samples < 1)
        fatal("robustness analysis needs at least one sample");
    if (!(options.intensityJitter >= 1.0) ||
        !(options.fractionJitter >= 1.0))
        fatal("jitter factors must be >= 1");

    // One compiled evaluator serves the nominal point, and one pack
    // broadcast from it evaluates the Monte-Carlo samples kWidth per
    // pass. Each sample overwrites every IP's work terms in place,
    // so lanes never leak state between passes.
    GablesEvaluator ev(soc, usecase);

    RobustnessReport report;
    report.samples = options.samples;
    report.nominal = ev.attainable();

    Rng rng(options.seed);
    std::vector<double> perf;
    perf.reserve(options.samples);
    std::map<int, int> bottleneck_counts;
    int meets = 0;

    constexpr size_t W = GablesEvalPack::kWidth;
    const size_t n = usecase.numIps();
    std::vector<double> fractions(n, 0.0);
    std::vector<double> intensities(n, 1.0);
    GablesEvalPack pack(ev);
    const size_t samples = static_cast<size_t>(options.samples);
    for (size_t s0 = 0; s0 < samples; s0 += W) {
        const size_t cnt = std::min(W, samples - s0);
        for (size_t lane = 0; lane < cnt; ++lane) {
            // Draws run sample-major, IP-minor, so the RNG stream
            // does not depend on the pack width.
            double sum = 0.0;
            for (size_t i = 0; i < n; ++i) {
                const IpWork &w = usecase.at(i);
                if (w.fraction == 0.0) {
                    fractions[i] = 0.0;
                    intensities[i] = 1.0;
                    continue;
                }
                double f_scale =
                    options.fractionJitter == 1.0
                        ? 1.0
                        : rng.logUniform(1.0 / options.fractionJitter,
                                         options.fractionJitter);
                double i_scale =
                    options.intensityJitter == 1.0
                        ? 1.0
                        : rng.logUniform(1.0 / options.intensityJitter,
                                         options.intensityJitter);
                intensities[i] = std::isinf(w.intensity)
                                     ? w.intensity
                                     : w.intensity * i_scale;
                fractions[i] = w.fraction * f_scale;
                sum += fractions[i];
            }
            GABLES_ASSERT(sum > 0.0, "perturbation removed all work");
            for (size_t i = 0; i < n; ++i)
                pack.setWork(lane, i, fractions[i] / sum,
                             intensities[i]);
        }
        pack.run(cnt);
        for (size_t lane = 0; lane < cnt; ++lane) {
            const double attainable = pack.attainable(lane);
            perf.push_back(attainable);
            bottleneck_counts[pack.bottleneckIp(lane)]++;
            if (options.target > 0.0 && attainable >= options.target)
                ++meets;
        }
    }

    std::sort(perf.begin(), perf.end());
    auto quantile = [&](double q) {
        double pos = q * (perf.size() - 1);
        size_t lo = static_cast<size_t>(pos);
        size_t hi = std::min(lo + 1, perf.size() - 1);
        double t = pos - static_cast<double>(lo);
        return perf[lo] * (1.0 - t) + perf[hi] * t;
    };
    double total = 0.0;
    for (double p : perf)
        total += p;
    report.mean = total / perf.size();
    report.p5 = quantile(0.05);
    report.p50 = quantile(0.50);
    report.p95 = quantile(0.95);
    report.meetsTargetProbability =
        options.target > 0.0
            ? static_cast<double>(meets) / options.samples
            : 1.0;
    for (const auto &[ip, count] : bottleneck_counts)
        report.bottleneckShare[ip] =
            static_cast<double>(count) / options.samples;
    return report;
}

} // namespace gables
