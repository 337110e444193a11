#include "core/evaluator.h"

#include <algorithm>
#include <limits>
#include <string>

namespace gables {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

void
evaluatorError(const char *head, size_t a, const char *mid, size_t b,
               const char *tail)
{
    std::string msg = std::string("evaluator: ") + head;
    if (a != SIZE_MAX)
        msg += std::to_string(a);
    msg += mid;
    if (b != SIZE_MAX)
        msg += std::to_string(b);
    fatal(msg + tail);
}

template <size_t W>
GablesKernel<W>::GablesKernel(const SocSpec &soc, const Usecase &usecase,
                              const SharedResources &shared)
{
    // No profiling span: every GablesModel::evaluate compiles a
    // kernel, and even a disabled span costs ~10% of that.
    validatePair(soc, usecase);
    n_ = soc.numIps();
    const std::vector<double> *weights = shared.dramWeights;
    if (weights && weights->size() != n_)
        evaluatorError("", weights->size(), " DRAM weights for ", n_,
                       " IPs");
    const size_t q = shared.buses ? shared.buses->size() : 0;
    if (q != 0 && (!shared.use || shared.use->size() < n_))
        fatal("use matrix index out of range");
    r_ = 1 + q;

    // Only inputs are filled: the first run() writes everything else.
    allocate();
    double *b = rows();
    for (size_t w = 0; w < W; ++w) {
        b[laneOff(kPpeak) + w] = soc.ppeak();
        b[resOff(kResBandwidth, 0) + w] = soc.bpeak();
        for (size_t j = 0; j < q; ++j)
            b[resOff(kResBandwidth, 1 + j) + w] =
                (*shared.buses)[j].bandwidth;
    }
    for (size_t i = 0; i < n_; ++i) {
        const IpSpec &ip = soc.ips()[i];
        const IpWork &work = usecase.work()[i];
        for (size_t w = 0; w < W; ++w) {
            b[ipOff(kAccel, i) + w] = ip.acceleration;
            b[ipOff(kIpBandwidth, i) + w] = ip.bandwidth;
            b[ipOff(kFraction, i) + w] = work.fraction;
            b[ipOff(kIntensity, i) + w] = work.intensity;
            b[ipOff(kIntensityEff, i) + w] =
                work.fraction > 0.0 ? work.intensity : 1.0;
        }
        b[weightOff(0) + i] = weights ? (*weights)[i] : 1.0;
        unitDram_ = unitDram_ && b[weightOff(0) + i] == 1.0;
        if (q == 0)
            continue;
        const std::vector<bool> &use = (*shared.use)[i];
        if (use.size() != q)
            fatal("use matrix row " + std::to_string(i) + " has " +
                  std::to_string(use.size()) + " entries, expected " +
                  std::to_string(q));
        for (size_t j = 0; j < q; ++j)
            b[weightOff(1 + j) + i] = use[j] ? 1.0 : 0.0;
    }
    touch(0, n_);
}

template <size_t W>
void
GablesKernel<W>::broadcast(const GablesKernel<1> &base)
    requires(W > 1)
{
    n_ = base.n_;
    r_ = base.r_;
    unitDram_ = base.unitDram_;
    allocate();
    double *b = rows();
    const double *s = base.rows();
    std::fill_n(b + laneOff(kPpeak), W, s[base.laneOff(kPpeak)]);
    for (size_t r = 0; r < r_; ++r)
        std::fill_n(b + resOff(kResBandwidth, r), W,
                    s[base.resOff(kResBandwidth, r)]);
    for (size_t k = kAccel; k <= kIntensityEff; ++k) {
        for (size_t i = 0; i < n_; ++i)
            std::fill_n(b + ipOff(k, i), W, s[base.ipOff(k, i)]);
    }
    std::copy_n(s + base.weightOff(0), r_ * n_, b + weightOff(0));
    dirtyLo_ = 0;
    dirtyHi_ = n_;
    // evals_ survives: a worker's pack is re-broadcast per chunk, and
    // its lifetime count feeds the model.evals totals.
}

template <size_t W>
BottleneckKind
GablesKernel<W>::attribute(size_t lane, int &ip, int &bus) const
{
    const double *b = rows();
    const double mem = b[resOff(kResTime, 0) + lane];
    double crit = std::max(b[laneOff(kMaxIpTime) + lane], mem);
    BottleneckKind kind = BottleneckKind::Memory;
    ip = -1;
    bus = -1;
    for (size_t i = 0; mem < crit && i < n_; ++i) {
        if (b[ipOff(kTime, i) + lane] >= crit) {
            ip = static_cast<int>(i);
            kind = b[ipOff(kComputeTime, i) + lane] >=
                           b[ipOff(kTransferTime, i) + lane]
                       ? BottleneckKind::IpCompute
                       : BottleneckKind::IpBandwidth;
            break;
        }
    }
    for (size_t r = 1; r < r_; ++r) {
        if (b[resOff(kResTime, r) + lane] > crit) {
            crit = b[resOff(kResTime, r) + lane];
            ip = -1;
            bus = static_cast<int>(r - 1);
            kind = BottleneckKind::Bus;
        }
    }
    return kind;
}

template <size_t W>
int
GablesKernel<W>::bottleneckIp(size_t lane) const
{
    checkLane(lane);
    int ip, bus;
    attribute(lane, ip, bus);
    return ip;
}

template <size_t W>
void
GablesKernel<W>::result(size_t lane, GablesResult &out) const
{
    checkLane(lane);
    const double *b = rows();
    out.ips.resize(n_);
    for (size_t i = 0; i < n_; ++i) {
        IpTiming &t = out.ips[i];
        t = IpTiming{};
        t.perfBound = kInf;
        if (b[ipOff(kFraction, i) + lane] > 0.0) {
            t.computeTime = b[ipOff(kComputeTime, i) + lane];
            t.dataBytes = b[ipOff(kDataBytes, i) + lane];
            t.transferTime = b[ipOff(kTransferTime, i) + lane];
            t.time = b[ipOff(kTime, i) + lane];
            t.perfBound = 1.0 / t.time;
        }
    }
    // With unit weights the DRAM bytes carry the bits of
    // Usecase::bytesPerOp(): the +0.0 of idle lanes adds exactly.
    const double bytes = b[resOff(kResBytes, 0) + lane];
    out.totalDataBytes = bytes;
    out.averageIntensity = bytes == 0.0 ? kInf : 1.0 / bytes;
    out.memoryTime = b[resOff(kResTime, 0) + lane];
    out.memoryPerfBound =
        out.memoryTime > 0.0 ? 1.0 / out.memoryTime : kInf;
    out.attainable = b[laneOff(kAttainable) + lane];
    out.bottleneck = attribute(lane, out.bottleneckIp, out.bottleneckBus);
}

template <size_t W>
std::vector<double>
GablesKernel<W>::busTimes(size_t lane) const
{
    checkLane(lane);
    std::vector<double> out(r_ - 1);
    for (size_t j = 0; j < out.size(); ++j)
        out[j] = rows()[resOff(kResTime, 1 + j) + lane];
    return out;
}

template <size_t W>
void
GablesKernel<W>::paramSums(double *accelSums, double *bwSums) const
{
    double *__restrict__ sa = accelSums;
    double *__restrict__ sb = bwSums;
    std::fill_n(sa, W, 0.0);
    std::fill_n(sb, W, 0.0);
    for (size_t i = 0; i < n_; ++i) {
        const double *__restrict__ ac = rows() + ipOff(kAccel, i);
        const double *__restrict__ bw = rows() + ipOff(kIpBandwidth, i);
#pragma omp simd
        for (size_t w = 0; w < W; ++w) {
            sa[w] += ac[w];
            sb[w] += bw[w];
        }
    }
}

template class GablesKernel<1>;
template class GablesKernel<8>;

} // namespace gables
