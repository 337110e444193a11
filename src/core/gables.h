/**
 * @file
 * The base Gables model (paper Section III): bottleneck analysis of
 * an N-IP SoC whose IPs operate concurrently and share off-chip
 * memory bandwidth.
 *
 * Work is normalized so the whole usecase is 1 operation; all times
 * below are therefore seconds-per-op and the attainable performance
 * Pattainable = 1 / max(times) is in ops/s (paper Eqs. 9-11). The
 * dual performance-form equations (Eqs. 12-14) are also provided and
 * are verified against the time form by property tests.
 */

#ifndef GABLES_CORE_GABLES_H
#define GABLES_CORE_GABLES_H

#include <string>
#include <vector>

#include "core/soc_spec.h"
#include "core/usecase.h"

namespace gables {

/** Which resource bounds the usecase. */
enum class BottleneckKind {
    /** An IP's computation rate (Ci dominates at the critical IP). */
    IpCompute,
    /** An IP's link bandwidth (Di/Bi dominates at the critical IP). */
    IpBandwidth,
    /** The shared off-chip memory interface (Tmemory dominates). */
    Memory,
    /** An interconnect bus (TBus[j] dominates, paper Eq. 17). */
    Bus,
};

/** @return A short display string for a bottleneck kind. */
std::string toString(BottleneckKind kind);

/** Per-IP timing detail of a Gables evaluation. */
struct IpTiming {
    /** Compute time Ci = fi / (Ai * Ppeak), seconds per unit op. */
    double computeTime = 0.0;
    /** Data moved Di = fi / Ii, bytes per unit op. */
    double dataBytes = 0.0;
    /** Link transfer time Di / Bi, seconds per unit op. */
    double transferTime = 0.0;
    /** TIP[i] = max(Di/Bi, Ci) (paper Eq. 9). */
    double time = 0.0;
    /**
     * The IP's scaled roofline bound 1/TIP[i] =
     * min(Bi*Ii, Ai*Ppeak)/fi (paper Eq. 12); +inf when fi == 0.
     */
    double perfBound = 0.0;
};

/** Complete result of evaluating a usecase on a SoC. */
struct GablesResult {
    /** Upper bound on SoC performance (ops/s), paper Eq. 11/14. */
    double attainable = 0.0;
    /** Time on the chip's memory interface (s per unit op), Eq. 10. */
    double memoryTime = 0.0;
    /** Memory roofline bound 1/Tmemory = Bpeak * Iavg (Eq. 13). */
    double memoryPerfBound = 0.0;
    /** Weighted harmonic-mean intensity Iavg (ops/byte). */
    double averageIntensity = 0.0;
    /** Total off-chip data demand sum(Di) (bytes per unit op). */
    double totalDataBytes = 0.0;
    /** Per-IP timing details, index-aligned with the SoC's IPs. */
    std::vector<IpTiming> ips;
    /**
     * Index of the bottleneck IP, or -1 when the memory interface or
     * a bus is the bottleneck. Ties break toward the memory
     * interface, then the lowest IP index; a bus binds only when
     * strictly slower (deterministic attribution).
     */
    int bottleneckIp = -1;
    /** Index of the bottleneck bus (bottleneck == Bus), else -1. */
    int bottleneckBus = -1;
    /** The kind of resource that limits performance. */
    BottleneckKind bottleneck = BottleneckKind::Memory;

    /** @return A short, human-readable bottleneck description. */
    std::string bottleneckLabel(const SocSpec &soc) const;
};

/** One interconnection network (colloquially, a bus) of the
 * interconnect extension (paper Section V-B). */
struct BusSpec {
    /** Display name, e.g. "multimedia fabric". */
    std::string name;
    /** Bandwidth Bbus[j] (bytes/s). */
    double bandwidth = 0.0;
};

/**
 * Check that @p usecase is index-aligned with @p soc and both are
 * internally valid: the check every model entry point performs.
 *
 * @throws FatalError describing the first violation.
 */
void validatePair(const SocSpec &soc, const Usecase &usecase);

/**
 * Evaluator for the base Gables model.
 *
 * Stateless; all methods are static. evaluate() compiles the pair
 * into the kernel (core/evaluator.h) and evaluates it; the
 * extensions (memory-side cache, interconnect, serialized work) live
 * in their own headers and are wrappers over the same kernel.
 */
class GablesModel
{
  public:
    /**
     * Evaluate a usecase on a SoC with the time-form equations
     * (Eqs. 9-11).
     *
     * @param soc     Hardware description; validated.
     * @param usecase Software description; must have exactly as many
     *                entries as the SoC has IPs.
     * @return Full result with per-IP details and bottleneck
     *         attribution.
     * @throws FatalError on mismatched sizes or invalid specs.
     */
    static GablesResult evaluate(const SocSpec &soc,
                                 const Usecase &usecase);

    /**
     * Attainable performance via the dual performance-form equations
     * (Eqs. 12-14): the minimum over scaled IP rooflines and the
     * memory roofline, with fi == 0 terms omitted.
     *
     * Equal to evaluate().attainable up to floating-point rounding;
     * kept separate because it is the form the multi-roofline plots
     * visualize.
     */
    static double attainablePerfForm(const SocSpec &soc,
                                     const Usecase &usecase);

    /**
     * The scaled roofline of IP @p i under @p usecase as a function
     * of a free intensity variable x (paper Section III-C):
     * min(Bi * x, Ai * Ppeak) / fi.
     *
     * @return The bound in ops/s; +inf if fi == 0.
     */
    static double scaledIpRoofline(const SocSpec &soc,
                                   const Usecase &usecase, size_t i,
                                   double intensity);

    /**
     * The memory roofline as a function of a free intensity variable
     * x: Bpeak * x (slanted only, no flat part).
     */
    static double memoryRoofline(const SocSpec &soc, double intensity);
};

} // namespace gables

#endif // GABLES_CORE_GABLES_H
