/**
 * @file
 * Ablation 4 and the analytic hot-path harness: the cost of the model
 * itself. The paper pitches Gables as an early-stage tool usable
 * interactively and inside optimizers. One best-of-N harness times
 * the analytic hot-path workloads, prints them and, with --json PATH,
 * writes them as BENCH_model_eval.json for the perf-regression
 * trajectory:
 *
 *  - evaluate_8ip: mutate-one-parameter + attainable() on a compiled
 *    8-IP evaluator — the steady-state sweep/advisor shape.
 *  - compile_evaluate_4ip: compile a fresh 4-IP pair and run the full
 *    evaluate — the shape of GablesModel::evaluate, of every
 *    extension call and of a serve cache miss.
 *  - sweep_mixing_4096: a full Sweep::mixing grid, serial.
 *  - explorer_grid / explorer_grid_pruned: the 64x64 explorer cross
 *    product through exploreFrontier(), without and with subgrid
 *    bound pruning.
 *  - sweep_mixing_4096_scalar / explorer_grid_scalar: the same grid
 *    workloads as one-point-at-a-time GablesEvaluator loops in this
 *    file, replaying the drivers' per-point mutation sequence, so
 *    the "*_simd_vs_scalar" speedups are a same-run,
 *    machine-independent measure of the packed lanes. The scalar
 *    evaluator is the width-1 instance of the same kernel the packs
 *    instantiate at width 8, so these rows measure lane width and
 *    per-point staging, not a second implementation. Each loop's
 *    output is checked bit-for-bit against the driver's.
 *  - explorer_grid_reference: the same grid evaluated the pre-
 *    evaluator way (SocSpec rebuild + GablesModel::evaluate per
 *    design) — the denominator of the reported speedups, measured in
 *    the same run so the ratio cancels machine speed.
 *
 * Then it prints the Ablation 4 rows, which the JSON leaves out:
 * GablesModel::evaluate and compiled mutate + attainable() on
 * synthetic N-IP chips, N = 2 ... 1024 — evaluation cost is linear in
 * N and stays in the nanosecond-to-microsecond regime.
 *
 * CI compares the committed baseline with a generous tolerance and
 * asserts the evaluator speedup stays above its floor. Run with
 * --reps N to scale measurement time.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <sstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/explorer.h"
#include "analysis/sweep.h"
#include "bench_util.h"
#include "core/evaluator.h"
#include "core/gables.h"
#include "parallel/parallel_for.h"
#include "util/atomic_file.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace gables;
using namespace gables::bench;

/** Build a synthetic N-IP SoC and matching usecase. */
std::pair<SocSpec, Usecase>
synthetic(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<IpSpec> ips;
    for (size_t i = 0; i < n; ++i) {
        ips.push_back(IpSpec{"IP" + std::to_string(i),
                             i == 0 ? 1.0 : rng.logUniform(0.5, 50.0),
                             rng.logUniform(2e9, 50e9)});
    }
    SocSpec soc("synthetic", 10e9, 30e9, std::move(ips));
    std::vector<double> f = rng.simplex(n);
    std::vector<IpWork> work(n);
    for (size_t i = 0; i < n; ++i)
        work[i] = IpWork{f[i], rng.logUniform(0.1, 64.0)};
    return {soc, Usecase("synthetic", std::move(work))};
}

/** Single-parameter mutation + attainable() on a compiled 8-IP
 * evaluator: the steady-state shape of every sweep/advisor probe. */
Measurement
measureEvaluate8Ip(int reps)
{
    auto [soc, u] = synthetic(8, 7);
    GablesEvaluator ev(soc, u);
    const uint64_t kEvals = 200000;
    double vals[4] = {0.5, 2.0, 8.0, 32.0};
    BestOf best;
    for (int r = 0; r < reps; ++r) {
        double acc = 0.0;
        Clock::time_point t0 = Clock::now();
        for (uint64_t i = 0; i < kEvals; ++i) {
            ev.setIntensity(3, vals[i & 3]);
            acc += ev.attainable();
        }
        double seconds = secondsSince(t0);
        consume(acc);
        best.sample(seconds, kEvals);
    }
    return best.result();
}

/** Compile a fresh 4-IP pair and run the full evaluate: the shape of
 * GablesModel::evaluate, of every extension call and of a serve cache
 * miss. */
Measurement
measureCompileEvaluate4Ip(int reps)
{
    auto [soc, u] = synthetic(4, 5);
    const uint64_t kCalls = 50000;
    BestOf best;
    for (int r = 0; r < reps; ++r) {
        double acc = 0.0;
        Clock::time_point t0 = Clock::now();
        for (uint64_t i = 0; i < kCalls; ++i)
            acc += GablesEvaluator(soc, u).evaluate().attainable;
        double seconds = secondsSince(t0);
        consume(acc);
        best.sample(seconds, kCalls);
    }
    return best.result();
}

/** Bitwise equality, so the scalar loops pin the packed bits. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/**
 * Sweep::mixing one point at a time, as the drivers ran it before
 * evaluation packs: normalization base, one evaluator compiled at
 * the first fraction, and a serial parallelFor whose body calls a
 * per-point function setFraction(0, 1 - f), setFraction(1, f),
 * attainable() / base. Only the lane arithmetic differs from the
 * packed driver, so the ratio measures the packs.
 */
std::vector<double>
scalarMixing(const SocSpec &soc, double i0, double i1,
             const std::vector<double> &fractions)
{
    auto usecase_for = [&](double f) {
        std::vector<IpWork> work(soc.numIps());
        work[0] = IpWork{1.0 - f, i0};
        work[1] = IpWork{f, i1};
        for (size_t i = 2; i < work.size(); ++i)
            work[i] = IpWork{0.0, 1.0};
        return Usecase("mixing", std::move(work));
    };
    const double base =
        GablesEvaluator(soc, usecase_for(0.0)).attainable();
    const std::function<double(GablesEvaluator &, double)> point =
        [base](GablesEvaluator &ev, double f) {
            ev.setFraction(0, 1.0 - f);
            ev.setFraction(1, f);
            return ev.attainable() / base;
        };
    GablesEvaluator ev(soc, usecase_for(fractions.front()));
    std::vector<double> y(fractions.size());
    parallel::ForOptions serial;
    serial.jobs = 1;
    parallel::parallelFor(
        fractions.size(),
        [&](size_t i, int) { y[i] = point(ev, fractions[i]); }, serial);
    return y;
}

/**
 * A full serial Sweep::mixing grid (paper Figure 8 shape), measured
 * through the packed driver and the scalar loop in alternating reps.
 * Interleaving matters: the packed-vs-scalar ratio gates CI, and
 * pairing the reps inside one window keeps scheduler/frequency drift
 * from landing on only one side of the ratio.
 */
void
measureSweepMixing(int reps, Measurement &packed, Measurement &scalar)
{
    auto [soc, u] = synthetic(4, 31);
    const size_t kPoints = 4096;
    std::vector<double> fractions;
    fractions.reserve(kPoints);
    for (size_t i = 0; i < kPoints; ++i)
        fractions.push_back(static_cast<double>(i) / (kPoints - 1));
    BestOf best_packed, best_scalar;
    for (int r = 0; r < reps; ++r) {
        Clock::time_point t0 = Clock::now();
        Series s = Sweep::mixing(soc, 8.0, 0.1, fractions, true, 1);
        best_packed.sample(secondsSince(t0), kPoints);

        t0 = Clock::now();
        std::vector<double> y = scalarMixing(soc, 8.0, 0.1, fractions);
        best_scalar.sample(secondsSince(t0), kPoints);

        if (!std::equal(y.begin(), y.end(), s.y.begin(), s.y.end(),
                        sameBits))
            fatal("scalar mixing loop disagrees with Sweep::mixing");
    }
    packed = best_packed.result();
    scalar = best_scalar.result();
}

/** The 64x64 explorer grid shared by the explorer workloads. */
DesignExplorer
makeGridExplorer(std::vector<double> &bpeaks,
                 std::vector<double> &accels)
{
    auto [soc, u] = synthetic(3, 23);
    CostModel cost;
    cost.costPerAcceleration = 1.0;
    cost.costPerBpeak = 1e-9;
    DesignExplorer ex(soc, {u}, cost);
    bpeaks.clear();
    accels.clear();
    for (int i = 0; i < 64; ++i)
        bpeaks.push_back((i + 1) * 1e9);
    for (int i = 0; i < 64; ++i)
        accels.push_back(1.0 + i);
    ex.sweepBpeak(bpeaks);
    ex.sweepAcceleration(1, accels);
    return ex;
}

/**
 * The unpruned explorer grid one design at a time, as
 * exploreFrontier() ran it before evaluation packs: subgrids of
 * ExploreOptions::subgridSize designs dispatched one design per pool
 * task; per design, the knob odometer (knob 0 = Bpeak fastest, a knob
 * re-applied only when its digit changes), linear cost from scratch
 * hardware arrays, and a per-design record; each subgrid merged into
 * the Pareto set in enumeration order; and each frontier member
 * re-evaluated into a SocSpec at the end. Only the lane arithmetic
 * and its staging differ from the packed driver, so the ratio
 * measures the packs. Returns the frontier sorted by ascending cost.
 */
std::vector<Candidate>
scalarExplorerFrontier(const std::vector<double> &bpeaks,
                       const std::vector<double> &accels)
{
    auto [soc, u] = synthetic(3, 23);
    CostModel cost;
    cost.costPerAcceleration = 1.0;
    cost.costPerBpeak = 1e-9;
    GablesEvaluator ev(soc, u);
    double bpeak = soc.bpeak();
    std::vector<IpSpec> ips = soc.ips();
    const std::vector<double> *knobs[2] = {&bpeaks, &accels};
    size_t digits[2] = {SIZE_MAX, SIZE_MAX};
    auto applyDigits = [&](size_t flat) {
        size_t rest = flat;
        for (size_t k = 0; k < 2; ++k) {
            const std::vector<double> &values = *knobs[k];
            const size_t digit = rest % values.size();
            rest /= values.size();
            if (digits[k] == digit)
                continue;
            if (k == 0) {
                ev.setBpeak(values[digit]);
                bpeak = values[digit];
            } else {
                ev.setAcceleration(1, values[digit]);
                ips[1].acceleration = values[digit];
            }
            digits[k] = digit;
        }
    };
    struct Point {
        size_t flat;
        double minPerf;
        double cost;
    };
    auto dominates = [](const Point &a, const Point &b) {
        return a.minPerf >= b.minPerf && a.cost <= b.cost &&
               (a.minPerf > b.minPerf || a.cost < b.cost);
    };
    std::vector<Point> incumbents;
    const size_t total = bpeaks.size() * accels.size();
    const size_t chunk = ExploreOptions{}.subgridSize;
    parallel::ThreadPool pool(1);
    std::vector<Point> points(chunk);
    for (size_t lo = 0; lo < total; lo += chunk) {
        const size_t hi = std::min(total, lo + chunk);
        points.resize(hi - lo);
        pool.forEach(hi - lo, [&](size_t i, int) {
            Point &p = points[i];
            p.flat = lo + i;
            applyDigits(p.flat);
            p.cost = cost.cost(bpeak, ips);
            p.minPerf = ev.attainable();
        });
        for (const Point &p : points) {
            if (std::any_of(incumbents.begin(), incumbents.end(),
                            [&](const Point &c) {
                                return dominates(c, p);
                            }))
                continue;
            std::erase_if(incumbents, [&](const Point &c) {
                return dominates(p, c);
            });
            incumbents.push_back(p);
        }
    }
    std::vector<Candidate> out;
    for (const Point &p : incumbents) {
        applyDigits(p.flat);
        SocSpec design(soc.name(), soc.ppeak(), bpeak, ips);
        double perf = ev.attainable();
        out.push_back(Candidate{design, perf, {perf},
                                cost.cost(bpeak, ips), true});
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Candidate &a, const Candidate &b) {
                         return a.cost < b.cost;
                     });
    return out;
}

/** The explorer cross product through exploreFrontier(), with or
 * without subgrid bound pruning. The rate is grid designs per second
 * of wall time, so pruning shows up as a higher rate. When @p scalar
 * is given, the unpruned scalar loop runs in alternating reps inside
 * the same window (see measureSweepMixing). */
Measurement
measureExplorerGrid(bool prune, int reps,
                    Measurement *scalar = nullptr)
{
    std::vector<double> bpeaks, accels;
    DesignExplorer ex = makeGridExplorer(bpeaks, accels);
    ExploreOptions opts;
    opts.jobs = 1;
    opts.prune = prune;
    const uint64_t designs =
        static_cast<uint64_t>(bpeaks.size() * accels.size());
    BestOf best_packed, best_scalar;
    for (int r = 0; r < reps; ++r) {
        Clock::time_point t0 = Clock::now();
        auto frontier = ex.exploreFrontier(opts);
        best_packed.sample(secondsSince(t0), designs);
        if (!scalar)
            continue;

        t0 = Clock::now();
        auto points = scalarExplorerFrontier(bpeaks, accels);
        best_scalar.sample(secondsSince(t0), designs);

        auto same = [](const Candidate &a, const Candidate &b) {
            return sameBits(a.minPerf, b.minPerf) &&
                   sameBits(a.cost, b.cost) &&
                   sameBits(a.soc.bpeak(), b.soc.bpeak()) &&
                   sameBits(a.soc.ip(1).acceleration,
                            b.soc.ip(1).acceleration);
        };
        if (!std::equal(points.begin(), points.end(), frontier.begin(),
                        frontier.end(), same))
            fatal("scalar explorer loop disagrees with "
                  "exploreFrontier()");
    }
    if (scalar)
        *scalar = best_scalar.result();
    return best_packed.result();
}

/**
 * The same grid evaluated the way the explorer worked before the
 * compiled-evaluator engine: one SocSpec rebuild per knob per design
 * and a full validating GablesModel::evaluate() per usecase. Kept as
 * an in-run reference so the speedup ratio is machine-independent.
 */
Measurement
measureExplorerReference(int reps)
{
    auto [soc, u] = synthetic(3, 23);
    std::vector<double> bpeaks, accels;
    for (int i = 0; i < 64; ++i)
        bpeaks.push_back((i + 1) * 1e9);
    for (int i = 0; i < 64; ++i)
        accels.push_back(1.0 + i);
    const uint64_t designs =
        static_cast<uint64_t>(bpeaks.size() * accels.size());
    BestOf best;
    for (int r = 0; r < reps; ++r) {
        double acc = 0.0;
        Clock::time_point t0 = Clock::now();
        for (double a : accels) {
            for (double b : bpeaks) {
                SocSpec design =
                    soc.withBpeak(b).withIpAcceleration(1, a);
                acc += GablesModel::evaluate(design, u).attainable;
            }
        }
        double seconds = secondsSince(t0);
        consume(acc);
        best.sample(seconds, designs);
    }
    return best.result();
}

/**
 * Ablation 4: GablesModel::evaluate (validate + compile + evaluate)
 * and a compiled evaluator's mutate + attainable() on synthetic N-IP
 * chips. Every N runs the same number of IP-evaluations per rep, so
 * the ns-per-IP columns stay flat when the cost is linear in N.
 */
void
printScaling(int reps)
{
    banner("Ablation 4", "model-evaluation cost vs N");
    const uint64_t kIpEvals = uint64_t{1} << 17;
    TextTable t({"N", "evaluate ns", "ns/IP", "compiled ns",
                 "ns/IP"});
    for (size_t n : {2, 4, 16, 64, 256, 1024}) {
        auto [soc, u] = synthetic(n, 7);
        const uint64_t calls = std::max<uint64_t>(1, kIpEvals / n);
        GablesEvaluator ev(soc, u);
        double vals[4] = {0.5, 2.0, 8.0, 32.0};
        BestOf model, compiled;
        for (int r = 0; r < reps; ++r) {
            double acc = 0.0;
            Clock::time_point t0 = Clock::now();
            for (uint64_t i = 0; i < calls; ++i)
                acc += GablesModel::evaluate(soc, u).attainable;
            model.sample(secondsSince(t0), calls);

            t0 = Clock::now();
            for (uint64_t i = 0; i < calls; ++i) {
                ev.setIntensity(1, vals[i & 3]);
                acc += ev.attainable();
            }
            compiled.sample(secondsSince(t0), calls);
            consume(acc);
        }
        const double nm = model.result().nsPer;
        const double nc = compiled.result().nsPer;
        const double ips = static_cast<double>(n);
        t.addRow({std::to_string(n), formatDouble(nm, 1),
                  formatDouble(nm / ips, 2), formatDouble(nc, 1),
                  formatDouble(nc / ips, 2)});
    }
    std::cout << t.render();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    int reps = 20;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--reps" && i + 1 < argc) {
            reps = static_cast<int>(
                parseIntInRange(argv[++i], 1, 1000000, "--reps"));
        } else {
            std::cerr << "usage: bench_model_scaling [--json PATH] "
                         "[--reps N]\n";
            return 2;
        }
    }

    banner("Analytic hot path",
           "compiled-evaluator throughput vs the rebuild-and-"
           "revalidate reference");

    // Warm up allocators so steady-state rates are measured, not
    // first-touch costs.
    measureEvaluate8Ip(1);

    // The grid workloads run the packed drivers and their scalar
    // loops in alternating reps of the same window: the
    // packed-vs-scalar ratio cancels machine speed the same way
    // explorer_grid_reference does for the evaluator, and the
    // interleave keeps drift off the ratio.
    Measurement eval8 = measureEvaluate8Ip(reps);
    Measurement compile4 = measureCompileEvaluate4Ip(reps);
    Measurement mixing, mixing_scalar;
    measureSweepMixing(std::max(1, reps / 4), mixing, mixing_scalar);
    Measurement grid_scalar;
    Measurement grid = measureExplorerGrid(
        false, std::max(1, reps / 4), &grid_scalar);
    Measurement pruned = measureExplorerGrid(true,
                                             std::max(1, reps / 4));
    Measurement reference =
        measureExplorerReference(std::max(1, reps / 4));

    const std::pair<const char *, const Measurement *> rows[] = {
        {"evaluate_8ip", &eval8},
        {"compile_evaluate_4ip", &compile4},
        {"sweep_mixing_4096", &mixing},
        {"sweep_mixing_4096_scalar", &mixing_scalar},
        {"explorer_grid", &grid},
        {"explorer_grid_scalar", &grid_scalar},
        {"explorer_grid_pruned", &pruned},
        {"explorer_grid_reference", &reference},
    };
    for (const auto &[name, m] : rows)
        printMeasurement(name, *m, "item");

    double speedup_grid = grid.perSec / reference.perSec;
    double speedup_pruned = pruned.perSec / reference.perSec;
    double speedup_mixing_simd = mixing.perSec / mixing_scalar.perSec;
    double speedup_grid_simd = grid.perSec / grid_scalar.perSec;
    std::cout << "  speedup vs reference: "
              << formatDouble(speedup_grid, 1) << "x unpruned, "
              << formatDouble(speedup_pruned, 1) << "x pruned\n";
    std::cout << "  packed vs scalar lanes: "
              << formatDouble(speedup_mixing_simd, 1)
              << "x mixing sweep, "
              << formatDouble(speedup_grid_simd, 1)
              << "x explorer grid (lane width "
              << GablesEvalPack::kWidth << ")\n";

    if (!json_path.empty()) {
        std::ostringstream out;
        JsonWriter json(out);
        json.beginObject();
        json.key("schema");
        json.beginObject();
        json.kv("name", "gables-model-eval-bench");
        json.kv("version", 1);
        json.endObject();
        json.kv("reps", reps);
        json.key("config");
        json.beginObject();
        json.kv("lane_width", GablesEvalPack::kWidth);
        json.endObject();
        json.key("workloads");
        json.beginObject();
        for (const auto &[name, m] : rows)
            writeMeasurement(json, name, *m, "item");
        json.endObject();
        json.key("speedup");
        json.beginObject();
        json.kv("explorer_grid_vs_reference", speedup_grid);
        json.kv("explorer_grid_pruned_vs_reference", speedup_pruned);
        json.kv("sweep_mixing_4096_simd_vs_scalar",
                speedup_mixing_simd);
        json.kv("explorer_grid_simd_vs_scalar", speedup_grid_simd);
        json.endObject();
        json.endObject();
        writeFileAtomic(json_path, out.str());
        std::cout << "wrote " << json_path << "\n";
    }

    // After the gated workloads, so they are measured first.
    printScaling(std::max(1, reps / 4));
    return 0;
}
