/**
 * @file
 * Compiled evaluation of the base Gables model for grid-scale
 * workloads (sweeps, design-space exploration, sensitivity and
 * robustness sampling, advisor bisection).
 *
 * GablesModel::evaluate() re-validates its inputs, re-derives every
 * per-IP term, and heap-allocates a GablesResult on every call; the
 * callers above additionally rebuild a SocSpec or Usecase copy per
 * grid point just to change one number. GablesEvaluator precompiles
 * a (SocSpec, Usecase) pair once into flat structure-of-arrays
 * state, caches the per-IP timing lanes, and exposes
 * single-parameter mutators so a grid axis updates one term instead
 * of rebuilding the pair. Evaluation then reduces the cached lanes
 * — zero allocations in steady state, and every number is
 * bit-identical to the legacy path because each lane is computed
 * with exactly the same expressions and the reductions run in the
 * same index order (verified exhaustively by property tests).
 *
 * Thread-safety: an evaluator is mutable state; use one instance per
 * worker (the parallel drivers build one per pool worker).
 */

#ifndef GABLES_CORE_EVALUATOR_H
#define GABLES_CORE_EVALUATOR_H

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/gables.h"
#include "util/logging.h"

namespace gables {

/**
 * A precompiled (SocSpec, Usecase) pair with cheap single-parameter
 * mutators and allocation-free evaluation.
 */
class GablesEvaluator
{
  public:
    /**
     * Compile the pair. Validates both once (the same checks every
     * GablesModel::evaluate() call performs) and caches all per-IP
     * timing lanes.
     *
     * @throws FatalError on mismatched sizes or invalid specs.
     */
    GablesEvaluator(const SocSpec &soc, const Usecase &usecase);

    /** @return Number of IPs N. */
    size_t numIps() const { return n_; }

    /** @name Current parameter values (for save/restore patterns). */
    /** @{ */
    double ppeak() const { return ppeak_; }
    double bpeak() const { return bpeak_; }
    double acceleration(size_t i) const { return accel_.at(i); }
    double ipBandwidth(size_t i) const { return bandwidth_.at(i); }
    double fraction(size_t i) const { return fraction_.at(i); }
    double intensity(size_t i) const { return intensity_.at(i); }
    /** @} */

    /**
     * @name Single-parameter mutators
     *
     * Each updates one model term and recomputes only the affected
     * timing lane(s). Values are checked with the same invariants the
     * SocSpec/Usecase constructors enforce (positive finite hardware
     * parameters, non-negative fractions, positive intensity wherever
     * work is assigned); the fractions-sum-to-one invariant is the
     * caller's contract, since grid drivers set several fractions in
     * sequence.
     */
    /** @{ */
    /** Replace the baseline peak performance Ppeak (rescales every
     * IP's compute roof). */
    void setPpeak(double ppeak);
    /** Replace the off-chip bandwidth Bpeak. */
    void setBpeak(double bpeak);
    /** Replace IP @p i's acceleration Ai (A0 must stay 1). */
    void setAcceleration(size_t i, double acceleration);
    /** Replace IP @p i's link bandwidth Bi. */
    void setIpBandwidth(size_t i, double bandwidth);
    /** Replace the work fraction fi at IP @p i. */
    void setFraction(size_t i, double fraction);
    /** Replace the operational intensity Ii at IP @p i. */
    void setIntensity(size_t i, double intensity);
    /** Replace both work terms of IP @p i in one lane recompute. */
    void setWork(size_t i, double fraction, double intensity);
    /** @} */

    /**
     * Scalar fast path: attainable performance only (paper Eq. 11),
     * without bottleneck attribution or per-IP detail.
     * Bit-identical to GablesModel::evaluate(...).attainable.
     */
    double attainable();

    /**
     * Full evaluation into a caller-owned scratch result. Reusing
     * the same scratch across grid points performs no allocations
     * after the first call. Every field matches
     * GablesModel::evaluate() bit-for-bit.
     */
    void evaluate(GablesResult &out);

    /** Convenience overload allocating a fresh result. */
    GablesResult evaluate();

    /**
     * @return Number of attainable()/evaluate() calls served, for
     * the model.evals telemetry counters (sum per-worker counts; the
     * total is scheduling-independent).
     */
    uint64_t evalCount() const { return evals_; }

  private:
    /** Recompute the cached timing lane of IP @p i with the exact
     * legacy expressions. */
    void recomputeLane(size_t i);
    /** Re-reduce totalBytes_ / maxIpTime_ if a lane changed. */
    void refresh();
    /** @return max over IP times and the memory time — the critical
     * time 1/Pattainable. */
    double criticalTime();
    void checkIp(size_t i) const;

    size_t n_ = 0;
    double ppeak_ = 0.0;
    double bpeak_ = 0.0;

    // Hardware and software inputs, index-aligned with the IPs.
    std::vector<double> accel_;
    std::vector<double> bandwidth_;
    std::vector<double> fraction_;
    std::vector<double> intensity_;

    // Hoisted invariants: peak_[i] = Ai * Ppeak, computed with the
    // same product SocSpec::ipPeakPerf() evaluates.
    std::vector<double> peak_;

    // Cached per-IP timing lanes (the IpTiming fields).
    std::vector<double> computeTime_;
    std::vector<double> dataBytes_;
    std::vector<double> transferTime_;
    std::vector<double> time_;
    std::vector<double> perfBound_;

    // Cached reductions over the lanes.
    double totalBytes_ = 0.0;
    double maxIpTime_ = 0.0;
    bool totalsDirty_ = true;

    uint64_t evals_ = 0;
};

/**
 * A pack of kWidth (8) independent model evaluations batched
 * for auto-vectorization.
 *
 * Where GablesEvaluator lays out one grid point as per-IP arrays,
 * the pack transposes W points into structure-of-arrays rows of W
 * lanes each (row-major [ip][lane]), so the per-IP recompute and the
 * min/bottleneck reductions of paper Eqs. 5-8 and 12-14 run as plain
 * fixed-trip-count inner loops over contiguous doubles — exactly the
 * shape `-O3` auto-vectorizes with no intrinsics.
 *
 * Bit-identity contract: every lane produces the same bits as a
 * GablesEvaluator fed the same mutation sequence. Two rules make
 * that hold:
 *  - per-lane arithmetic uses the same expressions and operand order
 *    as GablesEvaluator::recomputeLane() (the one scalar branch,
 *    f > 0, is replaced by a select that is value- and bit-exact in
 *    all cases, including Ii = inf and idle lanes);
 *  - reductions keep each lane's chain in IP index order — the
 *    vectorized loops batch *across* lanes (w) and never reassociate
 *    *within* a lane (i).
 * The property-fuzz suite enforces this bitwise.
 *
 * Thread-safety: mutable state; one pack per worker, like the scalar
 * evaluator.
 */
class GablesEvalPack
{
  public:
    /** Lanes per pack: a row of 8 doubles fills one cache line and
     * two AVX2 (or one AVX-512) vectors per inner loop. */
    static constexpr size_t kWidth = 8;

    /** Compile a pack with every lane a copy of @p base. */
    explicit GablesEvalPack(const GablesEvaluator &base);

    /** Reset every lane to a copy of @p base (no allocation when the
     * IP count is unchanged). */
    void broadcast(const GablesEvaluator &base);

    /** @return Number of IPs N (identical in every lane). */
    size_t numIps() const { return n_; }

    /**
     * @name Per-lane single-parameter mutators
     *
     * Same contracts and validation messages as the scalar
     * GablesEvaluator mutators; @p lane < kWidth selects the grid
     * point. Mutations are buffered — run() recomputes only rows a
     * mutation touched. Defined inline: drivers stage one mutation
     * per lane per grid point, so the call itself is on the packed
     * path's critical path.
     */
    /** @{ */
    void setPpeak(size_t lane, double ppeak)
    {
        checkLane(lane);
        if (!(ppeak > 0.0) || std::isinf(ppeak))
            fatal("evaluator: Ppeak must be positive and finite");
        ppeak_[lane] = ppeak;
        // Ppeak scales every IP's compute roof.
        for (size_t i = 0; i < n_; ++i)
            rowDirty_[i] = 1;
        anyDirty_ = true;
    }

    void setBpeak(size_t lane, double bpeak)
    {
        checkLane(lane);
        if (!(bpeak > 0.0) || std::isinf(bpeak))
            fatal("evaluator: Bpeak must be positive and finite");
        // Memory time is derived at run(), so no row changes.
        bpeak_[lane] = bpeak;
    }

    void setAcceleration(size_t lane, size_t i, double acceleration)
    {
        checkLane(lane);
        checkIp(i);
        if (!(acceleration > 0.0) || std::isinf(acceleration))
            fatal("evaluator: IP[" + std::to_string(i) +
                  "] acceleration must be positive and finite");
        if (i == 0 && acceleration != 1.0)
            fatal("evaluator: IP[0] acceleration A0 must be 1 "
                  "(paper Section III-D)");
        accel_[i * kWidth + lane] = acceleration;
        rowDirty_[i] = 1;
        anyDirty_ = true;
    }

    void setIpBandwidth(size_t lane, size_t i, double bandwidth)
    {
        checkLane(lane);
        checkIp(i);
        if (!(bandwidth > 0.0) || std::isinf(bandwidth))
            fatal("evaluator: IP[" + std::to_string(i) +
                  "] bandwidth must be positive and finite");
        bandwidth_[i * kWidth + lane] = bandwidth;
        rowDirty_[i] = 1;
        anyDirty_ = true;
    }

    void setFraction(size_t lane, size_t i, double fraction)
    {
        checkLane(lane);
        checkIp(i);
        if (!(fraction >= 0.0) || std::isinf(fraction))
            fatal("evaluator: fraction f[" + std::to_string(i) +
                  "] must be in [0, 1]");
        const size_t r = i * kWidth + lane;
        if (fraction > 0.0 && !(intensity_[r] > 0.0))
            fatal("evaluator: intensity I[" + std::to_string(i) +
                  "] must be > 0 where work is assigned");
        fraction_[r] = fraction;
        intensityEff_[r] = fraction > 0.0 ? intensity_[r] : 1.0;
        rowDirty_[i] = 1;
        anyDirty_ = true;
    }

    void setIntensity(size_t lane, size_t i, double intensity)
    {
        checkLane(lane);
        checkIp(i);
        const size_t r = i * kWidth + lane;
        if (fraction_[r] > 0.0 && !(intensity > 0.0))
            fatal("evaluator: intensity I[" + std::to_string(i) +
                  "] must be > 0 where work is assigned");
        intensity_[r] = intensity;
        intensityEff_[r] = fraction_[r] > 0.0 ? intensity : 1.0;
        rowDirty_[i] = 1;
        anyDirty_ = true;
    }

    void setWork(size_t lane, size_t i, double fraction,
                 double intensity)
    {
        checkLane(lane);
        checkIp(i);
        if (!(fraction >= 0.0) || std::isinf(fraction))
            fatal("evaluator: fraction f[" + std::to_string(i) +
                  "] must be in [0, 1]");
        if (fraction > 0.0 && !(intensity > 0.0))
            fatal("evaluator: intensity I[" + std::to_string(i) +
                  "] must be > 0 where work is assigned");
        const size_t r = i * kWidth + lane;
        fraction_[r] = fraction;
        intensity_[r] = intensity;
        intensityEff_[r] = fraction > 0.0 ? intensity : 1.0;
        rowDirty_[i] = 1;
        anyDirty_ = true;
    }
    /** @} */

    /**
     * @name Bulk row staging
     *
     * Set one parameter across the first @p cnt lanes from an array
     * — one call stages a whole grid-point batch, which is how the
     * sweep drivers feed packs. Validation is identical to the
     * per-lane mutators, applied in lane order (the first invalid
     * lane produces the same fatal() a GablesEvaluator mutator
     * would raise for that grid point). Lanes >= cnt keep their
     * previous values.
     */
    /** @{ */
    void setFractionRow(size_t i, const double *fractions,
                        size_t cnt);
    void setIntensityRow(size_t i, const double *intensities,
                         size_t cnt);
    void setAccelerationRow(size_t i, const double *accelerations,
                            size_t cnt);
    void setIpBandwidthRow(size_t i, const double *bandwidths,
                           size_t cnt);
    /** Per-lane Bpeak from an array (no row recompute needed). */
    void setBpeakLanes(const double *bpeaks, size_t cnt);
    /** @} */

    /**
     * Evaluate all lanes: recompute dirty rows, reduce, and cache
     * per-lane attainable performance. Lanes past @p activeLanes are
     * still computed (they hold stale-but-valid parameters) but are
     * not counted.
     *
     * @param activeLanes Number of lanes carrying real grid points;
     *        added to evalCount() so telemetry totals count one
     *        evaluation per grid point.
     */
    void run(size_t activeLanes);

    /** @return Attainable performance of @p lane from the last
     * run(); bit-identical to GablesEvaluator::attainable(). */
    double attainable(size_t lane) const { return att_.at(lane); }

    /** @return Lane @p lane's current off-chip bandwidth Bpeak. */
    double bpeak(size_t lane) const { return bpeak_.at(lane); }

    /**
     * Per-lane sums of the acceleration and link-bandwidth rows,
     * each accumulated in IP index order — the order
     * CostModel::cost() visits the IPs, so a linear cost computed
     * from these sums matches CostModel::cost() bit-for-bit. Reads the
     * staged parameters directly (no run() required).
     *
     * @param accelSums Out: kWidth sums of Ai per lane.
     * @param bwSums    Out: kWidth sums of Bi per lane.
     */
    void paramSums(double *accelSums, double *bwSums) const;

    /** @return Bottleneck attribution of @p lane from the last
     * run(): -1 for memory, else the lowest bottleneck IP index —
     * the same tie-break contract as GablesEvaluator::evaluate(). */
    int bottleneckIp(size_t lane) const;

    /** @return Evaluations served (active lanes across run() calls),
     * for the model.evals telemetry counters. */
    uint64_t evalCount() const { return evals_; }

  private:
    void checkLane(size_t lane) const
    {
        if (lane >= kWidth)
            fatal("evaluator: pack lane " + std::to_string(lane) +
                  " out of range (W=" + std::to_string(kWidth) +
                  ")");
    }

    void checkIp(size_t i) const
    {
        if (i >= n_)
            fatal("evaluator: IP index " + std::to_string(i) +
                  " out of range (N=" + std::to_string(n_) + ")");
    }

    static void checkCount(size_t cnt)
    {
        if (cnt > kWidth)
            fatal("evaluator: bulk lane count " +
                  std::to_string(cnt) + " exceeds pack width W=" +
                  std::to_string(kWidth));
    }

    size_t n_ = 0;

    // Per-lane scalars.
    std::array<double, kWidth> ppeak_{};
    std::array<double, kWidth> bpeak_{};

    // SoA rows, row-major [i * kWidth + lane].
    std::vector<double> accel_;
    std::vector<double> bandwidth_;
    std::vector<double> fraction_;
    std::vector<double> intensity_;
    // The divisor run() actually uses for dataBytes: the raw
    // intensity where fraction > 0, and a harmless 1.0 on idle lanes
    // (where the raw value may legally be <= 0 and f/I would produce
    // -0.0 or NaN instead of the scalar path's literal 0.0; 0/1
    // yields the identical +0.0 bits). Maintained at mutation time
    // so run()'s inner loop is pure branch-free arithmetic — the
    // whole point of the pack — while intensity_ keeps the raw value
    // for validation parity with the scalar mutators.
    std::vector<double> intensityEff_;

    // Derived rows (only the terms the reductions consume).
    std::vector<double> dataBytes_;
    std::vector<double> time_;

    // Per-lane reductions over the rows, cached across run() calls
    // until a mutation dirties a row (the scalar totalsDirty_
    // analogue — Bpeak-only grids never recompute them).
    std::array<double, kWidth> totalBytes_{};
    std::array<double, kWidth> maxIpTime_{};

    // Per-lane results of the last run().
    std::array<double, kWidth> memTime_{};
    std::array<double, kWidth> att_{};

    // Rows touched by a mutation since the last run(). rowDirty_[i]
    // covers all lanes of row i: recomputing a clean lane reproduces
    // identical bits, so over-recompute is harmless and keeps the
    // inner loops branch-free.
    std::vector<uint8_t> rowDirty_;
    bool anyDirty_ = true;

    uint64_t evals_ = 0;
};

} // namespace gables

#endif // GABLES_CORE_EVALUATOR_H
