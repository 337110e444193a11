/**
 * @file
 * design_grid: one op is a design study on a seed-drawn synthetic
 * SoC and usecase pair with 3 or 4 IPs. It runs a pruned frontier
 * search over a 3-knob grid, a 4096-point mixing sweep, a grid of
 * the extension models (memory-side memory, interconnect, both
 * combined) and a Monte-Carlo robustness analysis. Core and analysis
 * do nearly all the work; no sim, telemetry, serve or cli code runs.
 */

#include "analysis/explorer.h"
#include "analysis/robustness.h"
#include "analysis/sweep.h"
#include "core/combined.h"
#include "core/evaluator.h"
#include "core/interconnect.h"
#include "core/memside.h"
#include "harness.h"
#include "tracer.h"

namespace perfbench {
namespace {

using namespace gables;

/** Studies per round; the first kThreeIpStudies of the family have
 * 3 IPs, the rest 4. 4-IP studies cost more, and an even split would
 * put the median op on the edge between the two classes. */
constexpr size_t kStudies = 32;
constexpr size_t kThreeIpStudies = 8;
/**
 * Seed of the design family every run shares. How much of a grid
 * pruning skips depends on a design's shape (which IP bounds it, and
 * where), and one poorly pruned study sets the round's slowest op.
 * So the family is fixed, and the run's seed draws what leaves the
 * work unchanged: a per-study scale of every rate (Ppeak, Bpeak and
 * link bandwidths, with the matching cost coefficients divided by
 * it, so dominance is unchanged), the robustness seeds, and the
 * study order.
 */
constexpr uint64_t kFamilySeed = 0x6a09e667f3bcc908ULL;
constexpr size_t kBwValues = 64;
constexpr size_t kAccelValues = 64;
constexpr size_t kBpeakValues = 16;
constexpr size_t kSweepPoints = 4096;
constexpr size_t kMissRatios = 32;
constexpr size_t kBusWidths = 32;
constexpr int kRobustSamples = 4000;

struct Study {
    SocSpec soc;
    std::vector<Usecase> usecases;
    CostModel cost;
    double i0 = 1.0;
    double i1 = 1.0;
    uint64_t robustSeed = 1;
};

/** What one study produced; compared field by field, bit for bit. */
struct StudyOutput {
    std::vector<Candidate> frontier;
    ExploreStats explore;
    Series sweep;
    std::vector<double> base;
    std::vector<double> ext;
    RobustnessReport robust;
};

/** One study of the shared family. */
Study
drawStudy(Rng &rng, size_t n_ips)
{
    Study s{drawSoc(rng, n_ips, "synthetic"), {}, CostModel{}};
    s.usecases.push_back(drawUsecase(rng, n_ips, "u0"));
    s.usecases.push_back(drawUsecase(rng, n_ips, "u1"));
    s.cost.costPerAcceleration = 1.0;
    s.cost.costPerBpeak = rng.uniform(0.5, 2.0) / 1e9;
    s.cost.costPerIpBandwidth = rng.uniform(0.05, 0.2) / 1e9;
    s.i0 = rng.uniform(0.25, 16.0);
    s.i1 = rng.uniform(0.25, 16.0);
    return s;
}

/** @p s with every rate multiplied by @p k and each rate's cost
 * coefficient divided by it. */
Study
scaled(const Study &s, double k)
{
    std::vector<IpSpec> ips = s.soc.ips();
    for (IpSpec &ip : ips)
        ip.bandwidth *= k;
    Study out = s;
    out.soc = SocSpec(s.soc.name(), k * s.soc.ppeak(), k * s.soc.bpeak(),
                      std::move(ips));
    out.cost.costPerBpeak /= k;
    out.cost.costPerIpBandwidth /= k;
    return out;
}

DesignExplorer
explorerFor(const Study &s)
{
    DesignExplorer ex(s.soc, s.usecases, s.cost);
    // Knob 0 varies fastest; a cheap IP link bandwidth there keeps
    // each 256-design subgrid's cost bound tight, so pruning skips
    // the accelerations and Bpeaks past the point where the design
    // stops getting faster.
    ex.sweepIpBandwidth(1, geomspace(0.25 * s.soc.ip(1).bandwidth,
                                     4.0 * s.soc.ip(1).bandwidth,
                                     kBwValues));
    ex.sweepAcceleration(1, geomspace(0.25 * s.soc.ip(1).acceleration,
                                      16.0 * s.soc.ip(1).acceleration,
                                      kAccelValues));
    ex.sweepBpeak(geomspace(0.25 * s.soc.bpeak(), 4.0 * s.soc.bpeak(),
                            kBpeakValues));
    return ex;
}

std::vector<double>
fractions()
{
    std::vector<double> f(kSweepPoints);
    for (size_t i = 0; i < kSweepPoints; ++i)
        f[i] = static_cast<double>(i) /
               static_cast<double>(kSweepPoints - 1);
    return f;
}

bool
sameCandidates(const std::vector<Candidate> &a,
               const std::vector<Candidate> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const Candidate &x = a[i], &y = b[i];
        if (x.minPerf != y.minPerf || x.cost != y.cost ||
            x.pareto != y.pareto || x.perUsecase != y.perUsecase ||
            x.soc.bpeak() != y.soc.bpeak() ||
            x.soc.ppeak() != y.soc.ppeak() ||
            x.soc.numIps() != y.soc.numIps())
            return false;
        for (size_t i2 = 0; i2 < x.soc.numIps(); ++i2)
            if (x.soc.ip(i2).acceleration != y.soc.ip(i2).acceleration ||
                x.soc.ip(i2).bandwidth != y.soc.ip(i2).bandwidth)
                return false;
    }
    return true;
}

bool
sameRobust(const RobustnessReport &a, const RobustnessReport &b)
{
    return a.samples == b.samples && a.nominal == b.nominal &&
           a.mean == b.mean && a.p5 == b.p5 && a.p50 == b.p50 &&
           a.p95 == b.p95 &&
           a.meetsTargetProbability == b.meetsTargetProbability &&
           a.bottleneckShare == b.bottleneckShare;
}

class DesignGrid : public Workload
{
  public:
    void setup(uint64_t seed) override
    {
        Rng family(kFamilySeed);
        Rng rng(seed);
        studies_.clear();
        for (size_t i = 0; i < kStudies; ++i) {
            Study base = drawStudy(family, i < kThreeIpStudies ? 3 : 4);
            const double k = rng.uniform(0.5, 2.0);
            studies_.push_back(scaled(base, k));
            studies_.back().robustSeed = rng.next();
        }
        rng.shuffle(studies_);
        fractions_ = fractions();

        // References: the frontier of the whole grid evaluated without
        // pruning, and the sweep, extension and robustness outputs.
        // (explore() plus frontier() gives the same frontier, as the
        // explorer's tests show, but its Pareto marking is quadratic:
        // over a second per study at this grid size.)
        refs_.clear();
        for (const Study &s : studies_) {
            StudyOutput ref = runStudy(s, nullptr);
            ExploreOptions unpruned;
            unpruned.prune = false;
            ref.frontier = explorerFor(s).exploreFrontier(unpruned);
            refs_.push_back(std::move(ref));
        }
        outputs_.assign(kStudies, StudyOutput{});
        for (size_t i = 0; i < kStudies; ++i) // warm-up pass
            runOp(i, nullptr);
    }

    size_t roundSize() const override { return kStudies; }

    void runOp(size_t i, Tracer *tracer) override
    {
        outputs_[i] = runStudy(studies_[i], tracer);
    }

    size_t checkRound() override
    {
        size_t failed = 0;
        for (size_t i = 0; i < kStudies; ++i) {
            const StudyOutput &got = outputs_[i], &want = refs_[i];
            bool ok = sameCandidates(got.frontier, want.frontier) &&
                      got.sweep.x == want.sweep.x &&
                      got.sweep.y == want.sweep.y &&
                      got.base == want.base && got.ext == want.ext &&
                      sameRobust(got.robust, want.robust);
            failed += ok ? 0 : 1;
        }
        return failed;
    }

    uint64_t inputDigest() const override
    {
        Digest d;
        for (const Study &s : studies_) {
            d.num(s.soc.ppeak());
            d.num(s.soc.bpeak());
            for (const IpSpec &ip : s.soc.ips()) {
                d.num(ip.acceleration);
                d.num(ip.bandwidth);
            }
            for (const Usecase &u : s.usecases)
                for (const IpWork &w : u.work()) {
                    d.num(w.fraction);
                    d.num(w.intensity);
                }
            d.num(s.cost.costPerBpeak);
            d.num(s.cost.costPerIpBandwidth);
            d.num(s.i0);
            d.num(s.i1);
            d.u64(s.robustSeed);
        }
        return d.value();
    }

    uint64_t outputDigest() const override
    {
        Digest d;
        for (const StudyOutput &r : refs_) {
            for (const Candidate &c : r.frontier) {
                d.num(c.minPerf);
                d.num(c.cost);
            }
            for (double y : r.sweep.y)
                d.num(y);
            for (double v : r.ext)
                d.num(v);
            d.num(r.robust.mean);
        }
        return d.value();
    }

    void corruptReference() override { refs_[0].sweep.y[0] += 1.0; }

    void layerMetrics(const Tracer &tracer, Metrics &m) override
    {
        double evals = 0.0, pruned = 0.0;
        for (const StudyOutput &r : refs_) {
            evals += static_cast<double>(r.explore.evals);
            pruned += static_cast<double>(r.explore.evalsPruned);
        }
        const double per_op = 1.0 / static_cast<double>(kStudies);
        const Tracer::Layer &explore = tracer.layer("analysis.explore");
        const Tracer::Layer &sweep = tracer.layer("analysis.sweep");
        const Tracer::Layer &ext = tracer.layer("core.ext_eval");
        const double ops = static_cast<double>(explore.count);
        m["analysis.explore_ms"] = tracer.p50Ms("analysis.explore");
        m["analysis.explore_evals"] = evals * per_op;
        m["analysis.evals_pruned"] = pruned * per_op;
        m["analysis.prune_ratio"] = pruned / (evals + pruned);
        m["core.explore_evals_per_s"] =
            evals * per_op * ops / explore.totalSeconds;
        m["analysis.sweep_ms"] = tracer.p50Ms("analysis.sweep");
        m["core.sweep_points_per_s"] =
            static_cast<double>(kSweepPoints) *
            static_cast<double>(sweep.count) / sweep.totalSeconds;
        m["core.compile_ms"] = tracer.p50Ms("core.compile");
        m["analysis.robust_ms"] = tracer.p50Ms("analysis.robust");
        m["core.ext_eval_ms"] = tracer.p50Ms("core.ext_eval");
        // Three extension evaluations per grid point.
        m["core.ext_evals_per_s"] =
            3.0 * kMissRatios * kBusWidths *
            static_cast<double>(ext.count) / ext.totalSeconds;
    }

  private:
    StudyOutput runStudy(const Study &s, Tracer *tracer) const
    {
        Scope op(tracer, "design_grid.op");
        StudyOutput out;
        {
            Scope span(tracer, "analysis.explore");
            ExploreOptions opts;
            opts.jobs = 1;
            out.frontier = explorerFor(s).exploreFrontier(opts, &out.explore);
        }
        {
            Scope span(tracer, "analysis.sweep");
            out.sweep = Sweep::mixing(s.soc, s.i0, s.i1, fractions_);
        }
        {
            // The base model column of the extension grid, from the
            // compiled evaluator.
            Scope span(tracer, "core.compile");
            for (const Usecase &u : s.usecases)
                out.base.push_back(GablesEvaluator(s.soc, u).attainable());
        }
        {
            Scope span(tracer, "core.ext_eval");
            const Usecase &u = s.usecases[0];
            const size_t n = s.soc.numIps();
            std::vector<size_t> leaf(n);
            for (size_t i = 0; i < n; ++i)
                leaf[i] = i < n / 2 ? 0 : 1;
            out.ext.reserve(3 * kMissRatios * kBusWidths);
            for (size_t mi = 0; mi < kMissRatios; ++mi) {
                MemSideMemory memside = MemSideMemory::uniform(
                    n, 0.05 + 0.95 * static_cast<double>(mi) /
                                  static_cast<double>(kMissRatios - 1));
                for (size_t bi = 0; bi < kBusWidths; ++bi) {
                    double bus = s.soc.bpeak() *
                                 (0.25 + 0.125 * static_cast<double>(bi));
                    InterconnectModel ic = InterconnectModel::hierarchy(
                        {"left", "right"}, {bus, 0.75 * bus}, leaf,
                        1.5 * bus);
                    CombinedModel combined;
                    combined.setMemSide(memside);
                    combined.setInterconnect(ic);
                    out.ext.push_back(memside.evaluate(s.soc, u).attainable);
                    out.ext.push_back(ic.evaluate(s.soc, u).base.attainable);
                    out.ext.push_back(combined.evaluate(s.soc, u).attainable);
                }
            }
        }
        {
            Scope span(tracer, "analysis.robust");
            Robustness::Options opts;
            opts.samples = kRobustSamples;
            opts.seed = s.robustSeed;
            out.robust = Robustness::analyze(s.soc, s.usecases[0], opts);
        }
        return out;
    }

    std::vector<Study> studies_;
    std::vector<double> fractions_;
    std::vector<StudyOutput> refs_;
    std::vector<StudyOutput> outputs_;
};

} // namespace

std::unique_ptr<Workload>
makeDesignGrid()
{
    return std::make_unique<DesignGrid>();
}

} // namespace perfbench
