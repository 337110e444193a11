/**
 * @file
 * The Gables kernel: the model's bottleneck analysis written once,
 * over a lane width W. Per-IP times max(Di/Bi, Ci) (paper Eq. 9) are
 * set against one time per shared resource, T_r = sum_i(w_ri * Di) /
 * B_r, summed in IP index order: DRAM (B = Bpeak, weights mi default
 * 1; Eqs. 10, 15) and Q buses (weights Use(i, j) as 0/1; Eqs. 16-17).
 * Memory wins ties, then the lowest IP, then a bus, which binds only
 * when strictly slower (the lowest bus index among equals).
 *
 * GablesEvaluator (W = 1) serves GablesModel::evaluate, the extension
 * wrappers and single-point work; GablesEvalPack (W = 8) serves the
 * grid sweeps. Both run the same rows, so a pack lane and a scalar
 * evaluator fed the same mutations agree bit for bit by
 * construction. A kernel is mutable state: use one per worker.
 */

#ifndef GABLES_CORE_EVALUATOR_H
#define GABLES_CORE_EVALUATOR_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/gables.h"
#include "util/logging.h"

// The lane loops' vectorization hint, on under the evaluator flags.
#ifdef GABLES_LANE_SIMD
#define GABLES_LANES _Pragma("omp simd")
#else
#define GABLES_LANES
#endif

namespace gables {

/**
 * Throw the kernel's FatalError: "evaluator: " followed by @p head,
 * @p a, @p mid, @p b and @p tail, where an index of SIZE_MAX is left
 * out. Out of line, so the checks in the inline mutators stay small.
 */
[[noreturn]] void evaluatorError(const char *head, size_t a = SIZE_MAX,
                                 const char *mid = "", size_t b = SIZE_MAX,
                                 const char *tail = "");

/** Shared resources beyond DRAM's unit weights. Views; the kernel
 * copies them at compile time. */
struct SharedResources {
    /** DRAM weights mi (paper Eq. 15), one per IP; null for mi = 1. */
    const std::vector<double> *dramWeights = nullptr;
    /** Buses (Eqs. 16-17); null for none. */
    const std::vector<BusSpec> *buses = nullptr;
    /** use[i][j]: IP i's path to memory traverses bus j. */
    const std::vector<std::vector<bool>> *use = nullptr;
};

/**
 * The Gables model over W lanes of independent parameters.
 *
 * Mutators validate like the SocSpec/Usecase constructors (positive
 * finite hardware parameters, finite Ai*Ppeak, non-negative
 * fractions, positive intensity wherever work is assigned); the
 * fractions-sum-to-one invariant is the caller's contract, since grid
 * loops set several fractions in sequence. Mutations are buffered:
 * run() recomputes only the IP rows they touched, and re-reduces only
 * when a row changed.
 */
template <size_t W>
class GablesKernel
{
  public:
    /** Lanes per kernel. */
    static constexpr size_t kWidth = W;

    /**
     * Compile a pair, plus @p shared, into every lane.
     * @throws FatalError on mismatched sizes or invalid specs.
     */
    GablesKernel(const SocSpec &soc, const Usecase &usecase,
                 const SharedResources &shared = {});

    /** A pack with every lane a copy of @p base. (A template, so it
     * is never the width-1 copy constructor.) */
    template <size_t V>
        requires(V == 1 && W > 1)
    explicit GablesKernel(const GablesKernel<V> &base)
    {
        broadcast(base);
    }

    /** Reset every lane to a copy of @p base; evalCount() is kept. */
    void broadcast(const GablesKernel<1> &base)
        requires(W > 1);

    /** @return Number of IPs N. */
    size_t numIps() const { return n_; }

    /** @name Per-lane mutators (inline: grids stage one per lane) */
    /** @{ */
    void setPpeak(size_t lane, double ppeak)
    {
        checkLane(lane);
        if (!(ppeak > 0.0) || std::isinf(ppeak)) [[unlikely]]
            evaluatorError("Ppeak must be positive and finite");
        for (size_t i = 0; i < n_; ++i)
            checkPeak(i, rows()[ipOff(kAccel, i) + lane] * ppeak);
        rows()[laneOff(kPpeak) + lane] = ppeak;
        touch(0, n_);
    }

    /** Bpeak only scales the DRAM time, so no row is touched. */
    void setBpeak(size_t lane, double bpeak)
    {
        checkLane(lane);
        stageBpeak(lane, bpeak);
    }

    void setAcceleration(size_t lane, size_t i, double acceleration)
    {
        checkLane(lane);
        checkIp(i);
        stageAcceleration(lane, i, acceleration);
        touch(i, i + 1);
    }

    void setIpBandwidth(size_t lane, size_t i, double bandwidth)
    {
        checkLane(lane);
        checkIp(i);
        stageIpBandwidth(lane, i, bandwidth);
        touch(i, i + 1);
    }

    void setFraction(size_t lane, size_t i, double fraction)
    {
        checkLane(lane);
        checkIp(i);
        stageWork(lane, i, fraction, rows()[ipOff(kIntensity, i) + lane]);
        touch(i, i + 1);
    }

    void setIntensity(size_t lane, size_t i, double intensity)
    {
        checkLane(lane);
        checkIp(i);
        stageWork(lane, i, rows()[ipOff(kFraction, i) + lane], intensity);
        touch(i, i + 1);
    }

    void setWork(size_t lane, size_t i, double fraction, double intensity)
    {
        checkLane(lane);
        checkIp(i);
        stageWork(lane, i, fraction, intensity);
        touch(i, i + 1);
    }
    /** @} */

    /** @name One parameter of IP @p i across lanes [0, cnt): the
     * per-lane checks in lane order (earlier lanes stay staged). */
    /** @{ */
    void setFractionRow(size_t i, const double *v, size_t cnt)
    {
        checkIp(i);
        checkCount(cnt);
        for (size_t w = 0; w < cnt; ++w)
            stageWork(w, i, v[w], rows()[ipOff(kIntensity, i) + w]);
        touch(i, i + 1);
    }
    void setIntensityRow(size_t i, const double *v, size_t cnt)
    {
        checkIp(i);
        checkCount(cnt);
        for (size_t w = 0; w < cnt; ++w)
            stageWork(w, i, rows()[ipOff(kFraction, i) + w], v[w]);
        touch(i, i + 1);
    }
    void setAccelerationRow(size_t i, const double *v, size_t cnt)
    {
        checkIp(i);
        checkCount(cnt);
        for (size_t w = 0; w < cnt; ++w)
            stageAcceleration(w, i, v[w]);
        touch(i, i + 1);
    }
    void setIpBandwidthRow(size_t i, const double *v, size_t cnt)
    {
        checkIp(i);
        checkCount(cnt);
        for (size_t w = 0; w < cnt; ++w)
            stageIpBandwidth(w, i, v[w]);
        touch(i, i + 1);
    }
    void setBpeakLanes(const double *v, size_t cnt)
    {
        checkCount(cnt);
        for (size_t w = 0; w < cnt; ++w)
            stageBpeak(w, v[w]);
    }
    /** @} */

    /**
     * Evaluate all lanes and cache each one's attainable performance.
     * Lanes past @p activeLanes are computed too (their parameters
     * are stale but valid); only the active ones count in
     * evalCount().
     */
    void run(size_t activeLanes);

    /** @return Lane @p lane's attainable performance from the last
     * run(). */
    double attainable(size_t lane) const
    {
        checkLane(lane);
        return rows()[laneOff(kAttainable) + lane];
    }

    /** @return Lane @p lane's bottleneck IP from the last run(), or -1
     * when memory or a bus binds. */
    int bottleneckIp(size_t lane) const;

    /**
     * Lane @p lane's full result from the last run(), derived from
     * the rows. Idle IPs (fi <= 0, -0.0 included) report +0.0 times
     * and +inf perfBound. Reusing @p out allocates nothing.
     */
    void result(size_t lane, GablesResult &out) const;

    /** @return Lane @p lane's bus times TBus[j] from the last run(). */
    std::vector<double> busTimes(size_t lane) const;

    /** Per-lane sums of the Ai and Bi rows in IP index order (the
     * order CostModel::cost() adds them), from the staged values. */
    void paramSums(double *accelSums, double *bwSums) const;

    /** @return Lane @p lane's off-chip bandwidth Bpeak. */
    double bpeak(size_t lane = 0) const
    {
        checkLane(lane);
        return rows()[resOff(kResBandwidth, 0) + lane];
    }

    /** @return Evaluations served, for the model.evals counters. */
    uint64_t evalCount() const { return evals_; }

    /** @name Scalar API (W = 1): lane 0 without the lane argument. */
    /** @{ */
    double ppeak() const requires(W == 1) { return rows()[laneOff(kPpeak)]; }
    double acceleration(size_t i) const requires(W == 1)
    {
        return param(kAccel, i);
    }
    double ipBandwidth(size_t i) const requires(W == 1)
    {
        return param(kIpBandwidth, i);
    }
    double fraction(size_t i) const requires(W == 1)
    {
        return param(kFraction, i);
    }
    double intensity(size_t i) const requires(W == 1)
    {
        return param(kIntensity, i);
    }
    void setPpeak(double v) requires(W == 1) { setPpeak(0, v); }
    void setBpeak(double v) requires(W == 1) { setBpeak(0, v); }
    void setAcceleration(size_t i, double v) requires(W == 1)
    {
        setAcceleration(0, i, v);
    }
    void setIpBandwidth(size_t i, double v) requires(W == 1)
    {
        setIpBandwidth(0, i, v);
    }
    void setFraction(size_t i, double v) requires(W == 1)
    {
        setFraction(0, i, v);
    }
    void setIntensity(size_t i, double v) requires(W == 1)
    {
        setIntensity(0, i, v);
    }
    void setWork(size_t i, double f, double in) requires(W == 1)
    {
        setWork(0, i, f, in);
    }

    /** Attainable performance only (paper Eq. 11). */
    double attainable() requires(W == 1)
    {
        run(1);
        return rows()[laneOff(kAttainable)];
    }

    /** Full evaluation into a caller-owned scratch result. */
    void evaluate(GablesResult &out) requires(W == 1)
    {
        run(1);
        result(0, out);
    }

    GablesResult evaluate() requires(W == 1)
    {
        GablesResult out;
        evaluate(out);
        return out;
    }
    /** @} */

  private:
    template <size_t> friend class GablesKernel;

    // The block's layout: per-lane scalars (W doubles each), then
    // per-resource lanes, then per-IP rows ([ip][lane], so lane loops
    // are contiguous), then one weight row (N doubles) per resource.
    enum LaneRow : size_t { kPpeak, kMaxIpTime, kAttainable, kLaneRows };
    enum ResRow : size_t { kResBandwidth, kResBytes, kResTime, kResRows };
    enum IpRow : size_t {
        kAccel, kIpBandwidth, kFraction, kIntensity, kIntensityEff,
        kComputeTime, kDataBytes, kTransferTime, kTime, kIpRows
    };

    size_t laneOff(size_t k) const { return k * W; }
    size_t resOff(size_t k, size_t r) const
    {
        return (kLaneRows + k * r_ + r) * W;
    }
    size_t ipOff(size_t k, size_t i) const
    {
        return (kLaneRows + kResRows * r_ + k * n_ + i) * W;
    }
    size_t weightOff(size_t r) const
    {
        return (kLaneRows + kResRows * r_ + kIpRows * n_) * W + r * n_;
    }

    /** Size the block for the current shape; contents are the
     * caller's to fill. */
    void allocate()
    {
        const size_t size = weightOff(r_);
        if (size <= kInline)
            heap_.clear();
        else
            heap_.resize(size);
    }

    double *rows()
    {
        if constexpr (kInline == 0)
            return heap_.data();
        return heap_.empty() ? inline_.data() : heap_.data();
    }
    const double *rows() const
    {
        return const_cast<GablesKernel *>(this)->rows();
    }

    double param(size_t k, size_t i) const
    {
        checkIp(i);
        return rows()[ipOff(k, i)];
    }

    /** Mark IP rows [lo, hi) for recompute at the next run(). */
    void touch(size_t lo, size_t hi)
    {
        dirtyLo_ = lo < dirtyLo_ ? lo : dirtyLo_;
        dirtyHi_ = hi > dirtyHi_ ? hi : dirtyHi_;
    }

    /** @name Validate one value and store it (no lane/IP check). */
    /** @{ */
    void stageBpeak(size_t lane, double bpeak)
    {
        if (!(bpeak > 0.0) || std::isinf(bpeak)) [[unlikely]]
            evaluatorError("Bpeak must be positive and finite");
        rows()[resOff(kResBandwidth, 0) + lane] = bpeak;
    }

    void stageAcceleration(size_t lane, size_t i, double a)
    {
        if (!(a > 0.0) || std::isinf(a)) [[unlikely]]
            evaluatorError("IP[", i, "] acceleration must be positive "
                                     "and finite");
        if (i == 0 && a != 1.0) [[unlikely]]
            evaluatorError("IP[0] acceleration A0 must be 1 "
                           "(paper Section III-D)");
        checkPeak(i, a * rows()[laneOff(kPpeak) + lane]);
        rows()[ipOff(kAccel, i) + lane] = a;
    }

    void stageIpBandwidth(size_t lane, size_t i, double b)
    {
        if (!(b > 0.0) || std::isinf(b)) [[unlikely]]
            evaluatorError("IP[", i, "] bandwidth must be positive and "
                                     "finite");
        rows()[ipOff(kIpBandwidth, i) + lane] = b;
    }

    void stageWork(size_t lane, size_t i, double fraction, double intensity)
    {
        if (!(fraction >= 0.0) || std::isinf(fraction)) [[unlikely]]
            evaluatorError("fraction f[", i, "] must be in [0, 1]");
        if (fraction > 0.0 && !(intensity > 0.0)) [[unlikely]]
            evaluatorError("intensity I[", i,
                           "] must be > 0 where work is assigned");
        double *r = rows();
        r[ipOff(kFraction, i) + lane] = fraction;
        r[ipOff(kIntensity, i) + lane] = intensity;
        // run()'s divisor for Di: 1.0 on idle lanes, whose raw
        // intensity may legally be <= 0, so Di = 0/1 = +0.0 without
        // a branch in the row loop.
        r[ipOff(kIntensityEff, i) + lane] = fraction > 0.0 ? intensity : 1.0;
    }
    /** @} */

    /** The attribution rule over lane @p lane's last run(). */
    BottleneckKind attribute(size_t lane, int &ip, int &bus) const;

    void checkLane(size_t lane) const
    {
        if (lane >= W) [[unlikely]]
            evaluatorError("pack lane ", lane, " out of range (W=", W, ")");
    }

    void checkIp(size_t i) const
    {
        if (i >= n_) [[unlikely]]
            evaluatorError("IP index ", i, " out of range (N=", n_, ")");
    }

    static void checkCount(size_t cnt)
    {
        if (cnt > W) [[unlikely]]
            evaluatorError("bulk lane count ", cnt, " exceeds pack width W=",
                           W);
    }

    /** An overflowing Ai*Ppeak would round Ci to 0: the IP would look
     * infinitely fast. */
    static void checkPeak(size_t i, double peak)
    {
        if (std::isinf(peak)) [[unlikely]]
            evaluatorError("IP[", i, "] peak performance Ai*Ppeak must be "
                                     "finite");
    }

    /** Inline capacity in doubles (~8 IPs and 3 buses at W = 1), so
     * compile-and-evaluate allocates only its result. */
    static constexpr size_t kInline = W == 1 ? 128 : 0;

    size_t n_ = 0;
    /** Shared resources: DRAM plus the buses. */
    size_t r_ = 1;
    /** The block: inline_ when it fits, else heap_ (non-empty exactly
     * when in use). */
    std::array<double, kInline> inline_;
    std::vector<double> heap_;
    /** IP rows [dirtyLo_, dirtyHi_) changed since the last run(). */
    size_t dirtyLo_ = 0;
    size_t dirtyHi_ = 0;
    uint64_t evals_ = 0;
    /** Every DRAM weight is 1, so the DRAM row is a plain sum. */
    bool unitDram_ = true;
};

// Defined here so the width-1 instance inlines into its callers; the
// packs are instantiated in evaluator.cc only, under the evaluator
// flags. Its bits do not depend on those flags: divisions and max
// round exactly, and mi * Di (mi != 1) could be fused into a
// multiply-add only where the memory-side loop it replaces could.
template <size_t W>
void
GablesKernel<W>::run(size_t activeLanes)
{
    GABLES_ASSERT(activeLanes <= W,
                  "run() with more active lanes than the width");
    double *b = rows();

    if (dirtyLo_ < dirtyHi_) {
        // The per-IP terms of the touched rows (paper Eq. 9), with no
        // branch: idle lanes divide by 1.0 (stageWork) and fi / inf is
        // +0.0. __restrict__ lets GCC prove the stores do not alias
        // the loads.
        const double *__restrict__ pp = b + laneOff(kPpeak);
        for (size_t i = dirtyLo_; i < dirtyHi_; ++i) {
            const double *__restrict__ fr = b + ipOff(kFraction, i);
            const double *__restrict__ ac = b + ipOff(kAccel, i);
            const double *__restrict__ ie = b + ipOff(kIntensityEff, i);
            const double *__restrict__ bw = b + ipOff(kIpBandwidth, i);
            double *__restrict__ ct_row = b + ipOff(kComputeTime, i);
            double *__restrict__ db_row = b + ipOff(kDataBytes, i);
            double *__restrict__ tt_row = b + ipOff(kTransferTime, i);
            double *__restrict__ t_row = b + ipOff(kTime, i);
            GABLES_LANES
            for (size_t w = 0; w < W; ++w) {
                // Ci = fi / (Ai * Ppeak), the product ipPeakPerf()
                // forms; Di = fi / Ii; Di / Bi.
                const double ct = fr[w] / (ac[w] * pp[w]);
                const double db = fr[w] / ie[w];
                const double tt = db / bw[w];
                ct_row[w] = ct;
                db_row[w] = db;
                tt_row[w] = tt;
                t_row[w] = std::max(tt, ct);
            }
        }
        dirtyLo_ = n_;
        dirtyHi_ = 0;

        // Reductions, cached until a row changes (a Bpeak-only grid
        // skips them), each lane's chain in IP index order. The plain
        // DRAM sum is the DRAM row when every mi is 1; other rows skip
        // zero weights (an IP off a bus), which keeps 0 * inf out.
        std::array<double, W> maxt{};
        std::array<double, W> acc{};
        for (size_t i = 0; i < n_; ++i) {
            const double *__restrict__ t_row = b + ipOff(kTime, i);
            const double *__restrict__ db = b + ipOff(kDataBytes, i);
            GABLES_LANES
            for (size_t w = 0; w < W; ++w) {
                maxt[w] = std::max(maxt[w], t_row[w]);
                acc[w] += db[w];
            }
        }
        std::copy_n(maxt.data(), W, b + laneOff(kMaxIpTime));
        std::copy_n(acc.data(), W, b + resOff(kResBytes, 0));
        for (size_t r = unitDram_ ? 1 : 0; r < r_; ++r) {
            const double *__restrict__ wt = b + weightOff(r);
            acc.fill(0.0);
            for (size_t i = 0; i < n_; ++i) {
                const double m = wt[i];
                if (m == 0.0)
                    continue;
                const double *__restrict__ db = b + ipOff(kDataBytes, i);
                GABLES_LANES
                for (size_t w = 0; w < W; ++w)
                    acc[w] += m * db[w];
            }
            std::copy_n(acc.data(), W, b + resOff(kResBytes, r));
        }
    }

    // The resource times: the only terms that depend on the resource
    // bandwidths.
    std::array<double, W> crit;
    std::copy_n(b + laneOff(kMaxIpTime), W, crit.data());
    for (size_t r = 0; r < r_; ++r) {
        const double *__restrict__ bytes = b + resOff(kResBytes, r);
        const double *__restrict__ bw = b + resOff(kResBandwidth, r);
        double *__restrict__ t = b + resOff(kResTime, r);
        GABLES_LANES
        for (size_t w = 0; w < W; ++w) {
            t[w] = bytes[w] / bw[w];
            crit[w] = std::max(crit[w], t[w]);
        }
    }
    double *__restrict__ att = b + laneOff(kAttainable);
    GABLES_LANES
    for (size_t w = 0; w < W; ++w)
        att[w] = 1.0 / crit[w];
    for (size_t w = 0; w < activeLanes; ++w)
        GABLES_ASSERT(crit[w] > 0.0,
                      "usecase produced zero total time; Ppeak infinite?");
    evals_ += activeLanes;
}

extern template class GablesKernel<8>;

/** The compiled scalar evaluator. */
using GablesEvaluator = GablesKernel<1>;

/** A pack of 8 grid points: a row of 8 doubles fills one cache line
 * and two AVX2 (or one AVX-512) vectors. */
using GablesEvalPack = GablesKernel<8>;

} // namespace gables

#endif // GABLES_CORE_EVALUATOR_H
