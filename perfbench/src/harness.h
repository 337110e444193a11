/**
 * @file
 * The end-to-end benchmark harness: workloads, the timed loop, the
 * statistics it reports, and the digests that make two runs of one
 * seed comparable byte for byte.
 *
 * A workload is a fixed list of ops drawn from the seed (a "round").
 * The timed phase repeats whole rounds until the requested seconds
 * have passed, so every round does the same work for a given seed
 * and the per-round wall time is comparable across runs and seeds.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <streambuf>
#include <string>
#include <vector>

#include "core/soc_spec.h"
#include "core/usecase.h"

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** splitmix64: the only source of randomness in every workload, so
 * one seed yields the same inputs on every platform. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}
    uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
    /** Uniform integer in [0, n). */
    size_t below(size_t n);

    /** Fisher-Yates shuffle. */
    template <typename T> void shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t state_;
};

/** n values from lo to hi, evenly spaced on a log scale (n >= 2). */
std::vector<double> geomspace(double lo, double hi, size_t n);

/**
 * A synthetic SoC with IPs "IP0".."IP<n-1>": IP0 is the CPU
 * (acceleration 1), the others accelerate 0.5-40x; links carry
 * 4-40 GB/s, Ppeak is 4-16 Gops/s and Bpeak 10-40 GB/s.
 */
gables::SocSpec drawSoc(Rng &rng, size_t n_ips, std::string name);

/** A usecase whose fractions sum to 1, with log-uniform intensities
 * in [0.1, 64] ops/byte. */
gables::Usecase drawUsecase(Rng &rng, size_t n_ips, std::string name);

/** Incremental 64-bit FNV-1a-style digest (word at a time). */
class Digest
{
  public:
    void bytes(const void *data, size_t n);
    void str(const std::string &s);
    void num(double v);
    void u64(uint64_t v);
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Hex rendering of a digest. */
std::string hex(uint64_t v);

/**
 * An output stream sink that keeps no bytes: it counts them and
 * folds them into a digest, so a serializer is measured without the
 * disk and its output is still checked.
 */
class CountingSink : public std::streambuf
{
  public:
    CountingSink();
    uint64_t bytes() const;
    uint64_t digest();
    void reset();

  protected:
    int_type overflow(int_type ch) override;
    int sync() override;

  private:
    void drain();
    char buf_[1 << 16];
    uint64_t drained_ = 0;
    Digest digest_;
};

/** Named per-layer numbers a workload reports after a traced run. */
using Metrics = std::map<std::string, double>;

/**
 * One benchmark workload. setup() may be called several times; each
 * call rebuilds every input, reference and piece of state from the
 * seed and runs one warm-up round, and the last call's state is the
 * one the timed phase uses.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual void setup(uint64_t seed) = 0;

    /** Ops per round; fixed for a workload, whatever the seed. */
    virtual size_t roundSize() const = 0;

    /**
     * Run op @p i of the round. With a tracer, record a span around
     * every call into a layer. Outputs are kept for checkRound().
     */
    virtual void runOp(size_t i, Tracer *tracer) = 0;

    /** Check the outputs of the round just run against the set-up
     * references. @return Number of ops whose check failed. */
    virtual size_t checkRound() = 0;

    /** Digest of the generated inputs. */
    virtual uint64_t inputDigest() const = 0;

    /** Digest of the reference outputs the checks compare against. */
    virtual uint64_t outputDigest() const = 0;

    /**
     * Per-layer numbers after a traced phase: span-derived times
     * plus counters read from the program. May run extra untimed
     * work (the sim overhead ratios do).
     */
    virtual void layerMetrics(const Tracer &tracer, Metrics &out) = 0;

    /** Test hook: perturb one set-up reference so checks must fail. */
    virtual void corruptReference() = 0;
};

/** A reported metric, as BENCHMARK.json declares it. */
struct MetricSpec {
    std::string name;
    std::string unit;
    /** "lower" or "higher". */
    std::string better;
};

/** Printed with --trace 0, on every workload. */
const std::vector<MetricSpec> &endToEndMetrics();

/** Printed with --trace 1, on every workload; a layer the workload
 * never calls reads 0. */
const std::vector<MetricSpec> &perLayerMetrics();

/** Workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** @return The named workload, or nullptr if unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const std::string &corpus_dir,
                                       const std::string &scratch_dir);

/** Latency percentile read off a sorted sample. */
struct Tail {
    /** Percentile level, e.g. 99.9. */
    double percentile = 0.0;
    /** Latency at that percentile. */
    double value = 0.0;
    /** Samples strictly beyond it. */
    size_t beyond = 0;
};

/** Nearest-rank quantile of an ascending sample, q in [0, 1]. */
double quantile(const std::vector<double> &sorted, double q);

/**
 * The tail percentile: the highest of p50, p90, p99, p99.9, ... that
 * still has at least @p min_beyond samples beyond it.
 */
Tail tailPercentile(const std::vector<double> &sorted,
                    size_t min_beyond = 10);

/** How one timed phase runs. */
struct PhaseOptions {
    /** Wall seconds the phase lasts, re-run set-ups included. It
     * always runs at least two rounds of each kind. */
    double seconds = 0.0;
    /** With a tracer, odd rounds record spans and even rounds do
     * not, so both kinds see the same drift of the host. */
    Tracer *tracer = nullptr;
    /** Set-up runs again from scratch this many times, at evenly
     * spaced points of the phase, between rounds. */
    size_t resetups = 0;
    /** The seed those set-ups use. */
    uint64_t seed = 0;
};

/** The op latencies a phase keeps: those of its first
 * kMaxRoundsSampled rounds, and of at most kMaxOpsSampled ops. Later
 * ops are timed but not kept. */
constexpr size_t kMaxRoundsSampled = 4096;
constexpr size_t kMaxOpsSampled = size_t{1} << 20;

/**
 * Result of one timed phase. Every time in it but the unscaled round
 * times is at the reference host's speed (see calibrate.h): each op
 * and set-up is scaled by the runs of the reference kernel just
 * before and after it, and a round's time is the sum of its ops'.
 */
struct Phase {
    size_t rounds = 0;
    size_t attempted = 0;
    size_t failed = 0;
    /** Op latencies (s) of the untraced rounds, ascending; at most
     * the first kMaxOpsSampled or kMaxRoundsSampled rounds' worth. */
    std::vector<double> opSeconds;
    /** Wall times (s) of the untraced rounds, ascending. */
    std::vector<double> roundSeconds;
    /** Wall times (s) of the traced rounds, ascending. */
    std::vector<double> tracedRoundSeconds;
    /** Duration (s) of each re-run set-up, in order. */
    std::vector<double> setupSeconds;
    /** Unscaled wall times (s) of the untraced rounds, ascending. */
    std::vector<double> rawRoundSeconds;
    /** Every run of the reference kernel (s), ascending. */
    std::vector<double> kernelSeconds;
};

/** Repeat whole rounds until the phase's seconds have passed. */
Phase runPhase(Workload &w, const PhaseOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
