#include "core/evaluator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "telemetry/span.h"
#include "util/logging.h"

namespace gables {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

GablesEvaluator::GablesEvaluator(const SocSpec &soc,
                                 const Usecase &usecase)
{
    // Per-construction only; attainable() stays uninstrumented — at
    // tens of millions of evals per second even a disabled span's
    // atomic load would show up in the grid benchmarks.
    GABLES_SPAN("evaluator.compile");
    // The same pair check every GablesModel entry point performs,
    // paid once at compile time instead of per grid point.
    soc.validate();
    usecase.validate();
    if (usecase.numIps() != soc.numIps())
        fatal("usecase '" + usecase.name() + "' has " +
              std::to_string(usecase.numIps()) +
              " IP entries but SoC '" + soc.name() + "' has " +
              std::to_string(soc.numIps()) + " IPs");

    n_ = soc.numIps();
    ppeak_ = soc.ppeak();
    bpeak_ = soc.bpeak();
    accel_.resize(n_);
    bandwidth_.resize(n_);
    fraction_.resize(n_);
    intensity_.resize(n_);
    peak_.resize(n_);
    computeTime_.resize(n_);
    dataBytes_.resize(n_);
    transferTime_.resize(n_);
    time_.resize(n_);
    perfBound_.resize(n_);

    for (size_t i = 0; i < n_; ++i) {
        const IpSpec &ip = soc.ip(i);
        const IpWork &w = usecase.at(i);
        accel_[i] = ip.acceleration;
        bandwidth_[i] = ip.bandwidth;
        fraction_[i] = w.fraction;
        intensity_[i] = w.intensity;
        peak_[i] = ip.acceleration * ppeak_;
        recomputeLane(i);
    }
}

void
GablesEvaluator::checkIp(size_t i) const
{
    if (i >= n_)
        fatal("evaluator: IP index " + std::to_string(i) +
              " out of range (N=" + std::to_string(n_) + ")");
}

void
GablesEvaluator::recomputeLane(size_t i)
{
    // Exactly the arithmetic of GablesModel::evaluate(): same
    // operands, same operations, so the cached lane is bit-identical
    // to what a from-scratch evaluation would compute.
    double f = fraction_[i];
    if (f > 0.0) {
        computeTime_[i] = f / peak_[i];
        dataBytes_[i] =
            std::isinf(intensity_[i]) ? 0.0 : f / intensity_[i];
        transferTime_[i] = dataBytes_[i] / bandwidth_[i];
        time_[i] = std::max(transferTime_[i], computeTime_[i]);
        perfBound_[i] = 1.0 / time_[i];
    } else {
        // No work at this IP: no time, no traffic, unbounded scaled
        // roofline.
        computeTime_[i] = 0.0;
        dataBytes_[i] = 0.0;
        transferTime_[i] = 0.0;
        time_[i] = 0.0;
        perfBound_[i] = kInf;
    }
    totalsDirty_ = true;
}

void
GablesEvaluator::refresh()
{
    if (!totalsDirty_)
        return;
    // Reduce in index order: the sum visits the same operands in the
    // same order as the legacy loop, so the bits match.
    double total = 0.0;
    double max_time = 0.0;
    for (size_t i = 0; i < n_; ++i) {
        total += dataBytes_[i];
        max_time = std::max(max_time, time_[i]);
    }
    totalBytes_ = total;
    maxIpTime_ = max_time;
    totalsDirty_ = false;
}

void
GablesEvaluator::setPpeak(double ppeak)
{
    if (!(ppeak > 0.0) || std::isinf(ppeak))
        fatal("evaluator: Ppeak must be positive and finite");
    ppeak_ = ppeak;
    for (size_t i = 0; i < n_; ++i) {
        peak_[i] = accel_[i] * ppeak_;
        recomputeLane(i);
    }
}

void
GablesEvaluator::setBpeak(double bpeak)
{
    if (!(bpeak > 0.0) || std::isinf(bpeak))
        fatal("evaluator: Bpeak must be positive and finite");
    // The memory time is derived from bpeak_ at evaluation, so no
    // lane changes.
    bpeak_ = bpeak;
}

void
GablesEvaluator::setAcceleration(size_t i, double acceleration)
{
    checkIp(i);
    if (!(acceleration > 0.0) || std::isinf(acceleration))
        fatal("evaluator: IP[" + std::to_string(i) +
              "] acceleration must be positive and finite");
    if (i == 0 && acceleration != 1.0)
        fatal("evaluator: IP[0] acceleration A0 must be 1 "
              "(paper Section III-D)");
    accel_[i] = acceleration;
    peak_[i] = acceleration * ppeak_;
    recomputeLane(i);
}

void
GablesEvaluator::setIpBandwidth(size_t i, double bandwidth)
{
    checkIp(i);
    if (!(bandwidth > 0.0) || std::isinf(bandwidth))
        fatal("evaluator: IP[" + std::to_string(i) +
              "] bandwidth must be positive and finite");
    bandwidth_[i] = bandwidth;
    recomputeLane(i);
}

void
GablesEvaluator::setFraction(size_t i, double fraction)
{
    checkIp(i);
    if (!(fraction >= 0.0) || std::isinf(fraction))
        fatal("evaluator: fraction f[" + std::to_string(i) +
              "] must be in [0, 1]");
    if (fraction > 0.0 && !(intensity_[i] > 0.0))
        fatal("evaluator: intensity I[" + std::to_string(i) +
              "] must be > 0 where work is assigned");
    fraction_[i] = fraction;
    recomputeLane(i);
}

void
GablesEvaluator::setIntensity(size_t i, double intensity)
{
    checkIp(i);
    if (fraction_[i] > 0.0 && !(intensity > 0.0))
        fatal("evaluator: intensity I[" + std::to_string(i) +
              "] must be > 0 where work is assigned");
    intensity_[i] = intensity;
    recomputeLane(i);
}

void
GablesEvaluator::setWork(size_t i, double fraction, double intensity)
{
    checkIp(i);
    if (!(fraction >= 0.0) || std::isinf(fraction))
        fatal("evaluator: fraction f[" + std::to_string(i) +
              "] must be in [0, 1]");
    if (fraction > 0.0 && !(intensity > 0.0))
        fatal("evaluator: intensity I[" + std::to_string(i) +
              "] must be > 0 where work is assigned");
    fraction_[i] = fraction;
    intensity_[i] = intensity;
    recomputeLane(i);
}

double
GablesEvaluator::criticalTime()
{
    refresh();
    double max_time = std::max(maxIpTime_, totalBytes_ / bpeak_);
    GABLES_ASSERT(max_time > 0.0,
                  "usecase produced zero total time; Ppeak infinite?");
    return max_time;
}

double
GablesEvaluator::attainable()
{
    ++evals_;
    return 1.0 / criticalTime();
}

void
GablesEvaluator::evaluate(GablesResult &out)
{
    GABLES_SPAN("evaluator.evaluate");
    ++evals_;
    refresh();

    out.ips.resize(n_);
    for (size_t i = 0; i < n_; ++i) {
        IpTiming &t = out.ips[i];
        t.computeTime = computeTime_[i];
        t.dataBytes = dataBytes_[i];
        t.transferTime = transferTime_[i];
        t.time = time_[i];
        t.perfBound = perfBound_[i];
    }

    out.totalDataBytes = totalBytes_;
    out.memoryTime = totalBytes_ / bpeak_;
    // totalBytes_ carries the same bits as Usecase::bytesPerOp()
    // (adding the +0.0 of inactive lanes is exact), so this matches
    // usecase.averageIntensity().
    out.averageIntensity = totalBytes_ == 0.0 ? kInf : 1.0 / totalBytes_;
    out.memoryPerfBound =
        out.memoryTime > 0.0 ? 1.0 / out.memoryTime : kInf;

    double max_time = std::max(maxIpTime_, out.memoryTime);
    GABLES_ASSERT(max_time > 0.0,
                  "usecase produced zero total time; Ppeak infinite?");
    out.attainable = 1.0 / max_time;

    // Bottleneck attribution: memory wins ties, then lowest IP index
    // — the same deterministic contract as GablesModel::evaluate().
    if (out.memoryTime >= max_time) {
        out.bottleneckIp = -1;
        out.bottleneck = BottleneckKind::Memory;
    } else {
        for (size_t i = 0; i < n_; ++i) {
            if (time_[i] >= max_time) {
                out.bottleneckIp = static_cast<int>(i);
                out.bottleneck = computeTime_[i] >= transferTime_[i]
                                     ? BottleneckKind::IpCompute
                                     : BottleneckKind::IpBandwidth;
                break;
            }
        }
    }
}

GablesResult
GablesEvaluator::evaluate()
{
    GablesResult out;
    evaluate(out);
    return out;
}

GablesEvalPack::GablesEvalPack(const GablesEvaluator &base)
{
    broadcast(base);
}

void
GablesEvalPack::broadcast(const GablesEvaluator &base)
{
    n_ = base.numIps();
    const size_t rows = n_ * kWidth;
    accel_.resize(rows);
    bandwidth_.resize(rows);
    fraction_.resize(rows);
    intensity_.resize(rows);
    intensityEff_.resize(rows);
    dataBytes_.resize(rows);
    time_.resize(rows);
    rowDirty_.assign(n_, 1);
    anyDirty_ = true;

    ppeak_.fill(base.ppeak());
    bpeak_.fill(base.bpeak());
    for (size_t i = 0; i < n_; ++i) {
        const size_t o = i * kWidth;
        const double a = base.acceleration(i);
        const double b = base.ipBandwidth(i);
        const double f = base.fraction(i);
        const double in = base.intensity(i);
        const double eff = f > 0.0 ? in : 1.0;
        for (size_t w = 0; w < kWidth; ++w) {
            accel_[o + w] = a;
            bandwidth_[o + w] = b;
            fraction_[o + w] = f;
            intensity_[o + w] = in;
            intensityEff_[o + w] = eff;
        }
    }
    // evals_ deliberately survives broadcast(): a worker's pack is
    // re-broadcast per chunk, and its lifetime count feeds the same
    // model.evals totals a per-worker scalar evaluator would.
}

// The bulk row setters live here (not inline in the header) so they
// compile under the evaluator vector flags: validation runs as a
// scalar lane-order loop (same first-failure message as the per-lane
// mutators), then the stores vectorize.

void
GablesEvalPack::setFractionRow(size_t i, const double *fractions,
                               size_t cnt)
{
    checkIp(i);
    checkCount(cnt);
    const size_t o = i * kWidth;
    for (size_t w = 0; w < cnt; ++w) {
        const double f = fractions[w];
        if (!(f >= 0.0) || std::isinf(f))
            fatal("evaluator: fraction f[" + std::to_string(i) +
                  "] must be in [0, 1]");
        if (f > 0.0 && !(intensity_[o + w] > 0.0))
            fatal("evaluator: intensity I[" + std::to_string(i) +
                  "] must be > 0 where work is assigned");
    }
    double *__restrict__ fr = fraction_.data() + o;
    double *__restrict__ ie = intensityEff_.data() + o;
    const double *__restrict__ in = intensity_.data() + o;
#pragma omp simd
    for (size_t w = 0; w < cnt; ++w) {
        fr[w] = fractions[w];
        ie[w] = fractions[w] > 0.0 ? in[w] : 1.0;
    }
    rowDirty_[i] = 1;
    anyDirty_ = true;
}

void
GablesEvalPack::setIntensityRow(size_t i, const double *intensities,
                                size_t cnt)
{
    checkIp(i);
    checkCount(cnt);
    const size_t o = i * kWidth;
    for (size_t w = 0; w < cnt; ++w) {
        if (fraction_[o + w] > 0.0 && !(intensities[w] > 0.0))
            fatal("evaluator: intensity I[" + std::to_string(i) +
                  "] must be > 0 where work is assigned");
    }
    double *__restrict__ in = intensity_.data() + o;
    double *__restrict__ ie = intensityEff_.data() + o;
    const double *__restrict__ fr = fraction_.data() + o;
#pragma omp simd
    for (size_t w = 0; w < cnt; ++w) {
        in[w] = intensities[w];
        ie[w] = fr[w] > 0.0 ? intensities[w] : 1.0;
    }
    rowDirty_[i] = 1;
    anyDirty_ = true;
}

void
GablesEvalPack::setAccelerationRow(size_t i,
                                   const double *accelerations,
                                   size_t cnt)
{
    checkIp(i);
    checkCount(cnt);
    for (size_t w = 0; w < cnt; ++w) {
        const double a = accelerations[w];
        if (!(a > 0.0) || std::isinf(a))
            fatal("evaluator: IP[" + std::to_string(i) +
                  "] acceleration must be positive and finite");
        if (i == 0 && a != 1.0)
            fatal("evaluator: IP[0] acceleration A0 must be 1 "
                  "(paper Section III-D)");
    }
    double *__restrict__ ac = accel_.data() + i * kWidth;
    for (size_t w = 0; w < cnt; ++w)
        ac[w] = accelerations[w];
    rowDirty_[i] = 1;
    anyDirty_ = true;
}

void
GablesEvalPack::setIpBandwidthRow(size_t i, const double *bandwidths,
                                  size_t cnt)
{
    checkIp(i);
    checkCount(cnt);
    for (size_t w = 0; w < cnt; ++w) {
        if (!(bandwidths[w] > 0.0) || std::isinf(bandwidths[w]))
            fatal("evaluator: IP[" + std::to_string(i) +
                  "] bandwidth must be positive and finite");
    }
    double *__restrict__ bw = bandwidth_.data() + i * kWidth;
    for (size_t w = 0; w < cnt; ++w)
        bw[w] = bandwidths[w];
    rowDirty_[i] = 1;
    anyDirty_ = true;
}

void
GablesEvalPack::setBpeakLanes(const double *bpeaks, size_t cnt)
{
    checkCount(cnt);
    for (size_t w = 0; w < cnt; ++w) {
        if (!(bpeaks[w] > 0.0) || std::isinf(bpeaks[w]))
            fatal("evaluator: Bpeak must be positive and finite");
    }
    // Memory time is derived at run(), so no row dirtying.
    for (size_t w = 0; w < cnt; ++w)
        bpeak_[w] = bpeaks[w];
}

void
GablesEvalPack::run(size_t activeLanes)
{
    GABLES_ASSERT(activeLanes <= kWidth,
                  "pack run() with more active lanes than the width");

    // Phase 1: recompute rows a mutation touched. Each row is the
    // scalar recomputeLane() arithmetic replicated across lanes,
    // with no branch or select at all — the mutators pre-sanitize
    // the divisor (intensityEff_) so that plain division reproduces
    // the scalar path's branches bit-for-bit:
    //  - f == 0: eff is pinned to 1.0, so db = 0/1 = +0.0, the
    //    scalar path's literal 0.0 (dividing by a raw idle-lane
    //    intensity <= 0 would give -0.0 or NaN); ct = 0/peak = +0,
    //    tt = 0/b = +0, time = +0.
    //  - Ii = inf with f > 0: db = f/inf = +0.0, exactly the scalar
    //    isinf() special case.
    // Keeping the body straight-line arithmetic is what lets the
    // compiler turn a row into a handful of vector ops; a select
    // over a division defeats GCC's vectorizer at -O3 (the
    // fully-unrolled loop is never if-converted). The __restrict__
    // locals matter just as much: without them GCC cannot prove the
    // derived-row stores don't alias the parameter-row loads, and
    // SLP on the unrolled body silently falls back to 8 scalar
    // divisions per row.
    if (anyDirty_) {
        const double *__restrict__ fr = fraction_.data();
        const double *__restrict__ ac = accel_.data();
        const double *__restrict__ ie = intensityEff_.data();
        const double *__restrict__ bw = bandwidth_.data();
        double *__restrict__ db_row = dataBytes_.data();
        double *__restrict__ t_row = time_.data();
        for (size_t i = 0; i < n_; ++i) {
            if (!rowDirty_[i])
                continue;
            rowDirty_[i] = 0;
            const size_t o = i * kWidth;
            // The pragma (a no-op unless built with -fopenmp-simd)
            // keeps the loop in loop form for the vectorizer; GCC's
            // early complete unrolling otherwise leaves straight-
            // line code the SLP pass refuses to vectorize.
#pragma omp simd
            for (size_t w = 0; w < kWidth; ++w) {
                const double f = fr[o + w];
                // Same product SocSpec::ipPeakPerf() evaluates, so
                // the quotient matches the scalar peak_[i] path.
                const double ct = f / (ac[o + w] * ppeak_[w]);
                const double db = f / ie[o + w];
                const double tt = db / bw[o + w];
                db_row[o + w] = db;
                t_row[o + w] = std::max(tt, ct);
            }
        }

        // Phase 2: reductions, cached until the next row mutation —
        // the pack analogue of the scalar totalsDirty_ cache, so a
        // Bpeak-only grid (whose mutations dirty no row) skips both
        // phases exactly like the scalar refresh() no-ops. i outer /
        // w inner keeps every lane's chain in IP index order —
        // identical operands in identical order to the scalar
        // refresh(), vectorized across lanes only.
        std::array<double, kWidth> total{};
        std::array<double, kWidth> maxt{};
        for (size_t i = 0; i < n_; ++i) {
            const size_t o = i * kWidth;
#pragma omp simd
            for (size_t w = 0; w < kWidth; ++w)
                total[w] += db_row[o + w];
#pragma omp simd
            for (size_t w = 0; w < kWidth; ++w)
                maxt[w] = std::max(maxt[w], t_row[o + w]);
        }
        totalBytes_ = total;
        maxIpTime_ = maxt;
        anyDirty_ = false;
    }

    // Finalization: the only terms that depend on Bpeak, recomputed
    // every run() from the cached reductions.
#pragma omp simd
    for (size_t w = 0; w < kWidth; ++w) {
        memTime_[w] = totalBytes_[w] / bpeak_[w];
        att_[w] = 1.0 / std::max(maxIpTime_[w], memTime_[w]);
    }
    for (size_t w = 0; w < activeLanes; ++w)
        GABLES_ASSERT(std::max(maxIpTime_[w], memTime_[w]) > 0.0,
                      "usecase produced zero total time; "
                      "Ppeak infinite?");

    evals_ += activeLanes;
}

void
GablesEvalPack::paramSums(double *accelSums, double *bwSums) const
{
    const double *__restrict__ ac = accel_.data();
    const double *__restrict__ bw = bandwidth_.data();
    double *__restrict__ sa = accelSums;
    double *__restrict__ sb = bwSums;
#pragma omp simd
    for (size_t w = 0; w < kWidth; ++w) {
        sa[w] = 0.0;
        sb[w] = 0.0;
    }
    for (size_t i = 0; i < n_; ++i) {
        const size_t o = i * kWidth;
#pragma omp simd
        for (size_t w = 0; w < kWidth; ++w) {
            sa[w] += ac[o + w];
            sb[w] += bw[o + w];
        }
    }
}

int
GablesEvalPack::bottleneckIp(size_t lane) const
{
    checkLane(lane);
    // Same deterministic contract as GablesEvaluator::evaluate():
    // memory wins ties, then the lowest IP index.
    const double max_time = std::max(maxIpTime_[lane], memTime_[lane]);
    if (memTime_[lane] >= max_time)
        return -1;
    for (size_t i = 0; i < n_; ++i) {
        if (time_[i * kWidth + lane] >= max_time)
            return static_cast<int>(i);
    }
    return -1; // Unreachable: max_time is one of the IP times.
}

} // namespace gables
