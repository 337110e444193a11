#include "analysis/explorer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "telemetry/span.h"
#include "util/logging.h"
#include "util/parse.h"

namespace gables {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Pareto domination: a is at least as good on both axes and
 * strictly better on one. */
bool
dominatesPoint(double a_perf, double a_cost, double b_perf,
               double b_cost)
{
    return a_perf >= b_perf && a_cost <= b_cost &&
           (a_perf > b_perf || a_cost < b_cost);
}

} // namespace

double
CostModel::cost(double bpeak, const std::vector<IpSpec> &ips) const
{
    double accel = 0.0;
    double ip_bw = 0.0;
    for (const IpSpec &ip : ips) {
        accel += ip.acceleration;
        ip_bw += ip.bandwidth;
    }
    return costPerAcceleration * accel + costPerBpeak * bpeak +
           costPerIpBandwidth * ip_bw;
}

double
CostModel::cost(const SocSpec &soc) const
{
    return cost(soc.bpeak(), soc.ips());
}

DesignExplorer::DesignExplorer(SocSpec base, std::vector<Usecase> usecases,
                               CostModel cost)
    : base_(std::move(base)), usecases_(std::move(usecases)),
      cost_(cost)
{
    if (usecases_.empty())
        fatal("design explorer needs at least one usecase");
    for (const Usecase &u : usecases_) {
        if (u.numIps() != base_.numIps())
            fatal("usecase '" + u.name() +
                  "' does not match the base design's IP count");
    }
}

void
DesignExplorer::sweepBpeak(std::vector<double> values)
{
    if (values.empty())
        fatal("empty sweep values");
    knobs_.push_back({Knob::Kind::Bpeak, 0, std::move(values)});
}

void
DesignExplorer::sweepAcceleration(size_t ip, std::vector<double> values)
{
    if (values.empty())
        fatal("empty sweep values");
    if (ip == 0)
        fatal("cannot sweep A0: the paper fixes A0 = 1");
    if (ip >= base_.numIps())
        fatal("sweep targets IP " + std::to_string(ip) +
              " but the base design has only " +
              std::to_string(base_.numIps()) + " IPs");
    knobs_.push_back({Knob::Kind::Acceleration, ip, std::move(values)});
}

void
DesignExplorer::sweepIpBandwidth(size_t ip, std::vector<double> values)
{
    if (values.empty())
        fatal("empty sweep values");
    if (ip >= base_.numIps())
        fatal("sweep targets IP " + std::to_string(ip) +
              " but the base design has only " +
              std::to_string(base_.numIps()) + " IPs");
    knobs_.push_back({Knob::Kind::IpBandwidth, ip, std::move(values)});
}

size_t
DesignExplorer::gridSize() const
{
    size_t total = 1;
    for (size_t k = 0; k < knobs_.size(); ++k) {
        const size_t radix = knobs_[k].values.size();
        if (__builtin_mul_overflow(total, radix, &total))
            configError(SourceLoc{"explore", 0},
                        "design grid too large: sweep " +
                            std::to_string(k + 1) + " (" +
                            std::to_string(radix) +
                            " values) takes the product of value "
                            "counts past " +
                            std::to_string(
                                std::numeric_limits<size_t>::max()));
    }
    return total;
}

bool
DesignExplorer::hasDuplicateKnobTargets() const
{
    for (size_t i = 0; i < knobs_.size(); ++i) {
        for (size_t j = i + 1; j < knobs_.size(); ++j) {
            if (knobs_[i].kind != knobs_[j].kind)
                continue;
            if (knobs_[i].kind == Knob::Kind::Bpeak ||
                knobs_[i].ip == knobs_[j].ip)
                return true;
        }
    }
    return false;
}

DesignExplorer::WorkerState
DesignExplorer::makeWorkerState() const
{
    WorkerState ws;
    ws.evaluators.reserve(usecases_.size());
    for (const Usecase &u : usecases_)
        ws.evaluators.emplace_back(base_, u);
    ws.bpeak = base_.bpeak();
    ws.ips = base_.ips();
    // "No digit applied yet": the first applyDigits() call applies
    // every knob.
    ws.digits.assign(knobs_.size(),
                     std::numeric_limits<size_t>::max());
    ws.incremental = !hasDuplicateKnobTargets();
    return ws;
}

void
DesignExplorer::applyKnobHardware(WorkerState &ws, const Knob &knob,
                                  double v)
{
    switch (knob.kind) {
    case Knob::Kind::Bpeak:
        ws.bpeak = v;
        break;
    case Knob::Kind::Acceleration:
        ws.ips[knob.ip].acceleration = v;
        break;
    case Knob::Kind::IpBandwidth:
        ws.ips[knob.ip].bandwidth = v;
        break;
    }
}

void
DesignExplorer::applyKnobLane(GablesEvalPack &pack, size_t lane,
                              const Knob &knob, double v)
{
    switch (knob.kind) {
    case Knob::Kind::Bpeak:
        pack.setBpeak(lane, v);
        break;
    case Knob::Kind::Acceleration:
        pack.setAcceleration(lane, knob.ip, v);
        break;
    case Knob::Kind::IpBandwidth:
        pack.setIpBandwidth(lane, knob.ip, v);
        break;
    }
}

void
DesignExplorer::applyKnob(WorkerState &ws, const Knob &knob,
                          double v) const
{
    switch (knob.kind) {
    case Knob::Kind::Bpeak:
        for (GablesEvaluator &ev : ws.evaluators)
            ev.setBpeak(v);
        break;
    case Knob::Kind::Acceleration:
        for (GablesEvaluator &ev : ws.evaluators)
            ev.setAcceleration(knob.ip, v);
        break;
    case Knob::Kind::IpBandwidth:
        for (GablesEvaluator &ev : ws.evaluators)
            ev.setIpBandwidth(knob.ip, v);
        break;
    }
    applyKnobHardware(ws, knob, v);
}

void
DesignExplorer::applyDigits(WorkerState &ws, size_t flat) const
{
    size_t rest = flat;
    for (size_t k = 0; k < knobs_.size(); ++k) {
        const Knob &knob = knobs_[k];
        size_t digit = rest % knob.values.size();
        rest /= knob.values.size();
        if (!ws.incremental || ws.digits[k] != digit) {
            applyKnob(ws, knob, knob.values[digit]);
            ws.digits[k] = digit;
        }
    }
}

void
DesignExplorer::evaluateOne(size_t flat, WorkerState &ws,
                            Candidate &out) const
{
    applyDigits(ws, flat);
    out.soc = SocSpec(base_.name(), base_.ppeak(), ws.bpeak, ws.ips);
    out.cost = cost_.cost(ws.bpeak, ws.ips);
    out.pareto = false;
    out.perUsecase.clear();
    out.perUsecase.reserve(usecases_.size());
    double min_perf = kInf;
    for (GablesEvaluator &ev : ws.evaluators) {
        double p = ev.attainable();
        out.perUsecase.push_back(p);
        min_perf = std::min(min_perf, p);
    }
    out.minPerf = min_perf;
}

std::vector<Candidate>
DesignExplorer::explore(int jobs, parallel::ForStats *stats) const
{
    // The cross product is enumerated odometer-style with knob 0
    // fastest-varying; flat index i decomposes into per-knob digits
    // so candidates land in pre-sized slots in enumeration order
    // regardless of how many workers evaluate them.
    std::vector<Candidate> candidates(
        gridSize(), Candidate{base_, 0.0, {}, 0.0, false});

    parallel::ForOptions opts;
    opts.jobs = jobs;
    int workers = parallel::plannedWorkers(candidates.size(), opts);
    std::vector<WorkerState> states;
    states.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w)
        states.push_back(makeWorkerState());

    parallel::ForStats st;
    {
        GABLES_SPAN("explore.grid");
        st = parallel::parallelFor(
            candidates.size(),
            [&](size_t i, int worker) {
                evaluateOne(i, states[static_cast<size_t>(worker)],
                            candidates[i]);
            },
            opts);
    }
    if (stats)
        *stats = st;

    // Pareto marking: candidate c is dominated if another candidate
    // has >= perf and <= cost with at least one strict. Each index
    // only writes its own flag, so the scan parallelizes cleanly.
    GABLES_SPAN("explore.pareto");
    parallel::parallelFor(
        candidates.size(),
        [&](size_t i) {
            bool dominated = false;
            for (size_t j = 0;
                 j < candidates.size() && !dominated; ++j) {
                if (i == j)
                    continue;
                dominated = dominatesPoint(
                    candidates[j].minPerf, candidates[j].cost,
                    candidates[i].minPerf, candidates[i].cost);
            }
            candidates[i].pareto = !dominated;
        },
        opts);

    // Stable: equal-minPerf candidates keep enumeration order, which
    // is what makes the pruned frontier ordering reproducible.
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate &a, const Candidate &b) {
                         return a.minPerf > b.minPerf;
                     });
    return candidates;
}

std::vector<Candidate>
DesignExplorer::exploreFrontier(const ExploreOptions &options,
                                ExploreStats *stats) const
{
    const size_t total = gridSize();
    const size_t n_use = usecases_.size();
    const size_t n_knobs = knobs_.size();

    parallel::ForOptions opts;
    opts.jobs = options.jobs;
    const int workers = parallel::plannedWorkers(total, opts);

    // Per-knob bounds assume each knob drives its own model term;
    // two sweeps on the same term make the later one override the
    // earlier in enumeration order, so fall back to full evaluation.
    const bool prune = options.prune && !hasDuplicateKnobTargets();
    const size_t chunk = std::max<size_t>(1, options.subgridSize);

    ExploreStats st;
    st.forStats.workers = workers;
    st.forStats.busySeconds.assign(static_cast<size_t>(workers), 0.0);

    std::vector<WorkerState> states;
    states.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w)
        states.push_back(makeWorkerState());
    WorkerState probe = prune ? makeWorkerState() : WorkerState{};

    // Packed grid: each worker carries one pack per usecase and
    // evaluates kWidth designs per pass. Each lane reproduces the
    // per-design mutation sequence of applyDigits() bit-for-bit, and
    // the min-across-usecases reduction visits usecases in the same
    // order, so frontiers match explore() exactly.
    for (WorkerState &ws : states) {
        ws.packs.reserve(ws.evaluators.size());
        for (const GablesEvaluator &ev : ws.evaluators)
            ws.packs.emplace_back(ev);
        // "No digit applied yet" sentinels, as in makeWorkerState():
        // the first pack stages every knob on every lane.
        ws.laneDigits.assign(GablesEvalPack::kWidth * n_knobs,
                             std::numeric_limits<size_t>::max());
        ws.curDigits.assign(n_knobs, 0);
    }

    // Flat-index stride of each knob (knob 0 varies fastest).
    std::vector<size_t> stride(n_knobs, 1);
    for (size_t k = 1; k < n_knobs; ++k)
        stride[k] = stride[k - 1] * knobs_[k - 1].values.size();

    // The digits knob k takes over flat range [lo, hi] form either
    // the full radix or a contiguous run (mod radix) of the quotient
    // lo/stride .. hi/stride.
    auto forEachCoveredDigit = [&](size_t k, size_t lo, size_t hi,
                                   auto &&fn) {
        size_t radix = knobs_[k].values.size();
        size_t q_lo = lo / stride[k];
        size_t q_hi = hi / stride[k];
        size_t count = q_hi - q_lo + 1;
        if (count >= radix) {
            for (size_t d = 0; d < radix; ++d)
                fn(d);
            return;
        }
        size_t d = q_lo % radix;
        for (size_t t = 0; t < count; ++t) {
            fn(d);
            d = (d + 1 == radix) ? 0 : d + 1;
        }
    };

    // Light per-design record; full Candidates (SocSpec, perUsecase)
    // are materialized only for the final frontier members.
    struct Point {
        size_t flat;
        double minPerf;
        double cost;
    };
    // Pareto set of all designs evaluated so far, kept in
    // enumeration order.
    std::vector<Point> incumbents;

    // A subgrid is skipped when some incumbent strictly dominates
    // its best corner — and therefore strictly dominates every
    // design inside it: performance is weakly nondecreasing in every
    // knob (bitwise, since FP *, /, +, max are weakly monotone), so
    // Pmax at the all-max corner bounds the box from above, and the
    // linear cost at the sign-chosen corner bounds it from below.
    auto dominatedByIncumbent = [&](double p_max, double c_min) {
        for (const Point &c : incumbents) {
            if ((c.minPerf >= p_max && c.cost < c_min) ||
                (c.minPerf > p_max && c.cost <= c_min))
                return true;
        }
        return false;
    };

    auto subgridBounds = [&](size_t lo, size_t hi, double &p_max,
                             double &c_min) {
        // Max-performance corner: largest covered value per knob,
        // evaluated with the same arithmetic as any real design.
        for (size_t k = 0; k < n_knobs; ++k) {
            double best = -kInf;
            forEachCoveredDigit(k, lo, hi, [&](size_t d) {
                best = std::max(best, knobs_[k].values[d]);
            });
            applyKnob(probe, knobs_[k], best);
        }
        double min_perf = kInf;
        for (GablesEvaluator &ev : probe.evaluators)
            min_perf = std::min(min_perf, ev.attainable());
        p_max = min_perf;

        // Min-cost corner: per knob, the covered value whose linear
        // cost contribution is smallest given the coefficient sign.
        for (size_t k = 0; k < n_knobs; ++k) {
            double coeff = 0.0;
            switch (knobs_[k].kind) {
            case Knob::Kind::Bpeak:
                coeff = cost_.costPerBpeak;
                break;
            case Knob::Kind::Acceleration:
                coeff = cost_.costPerAcceleration;
                break;
            case Knob::Kind::IpBandwidth:
                coeff = cost_.costPerIpBandwidth;
                break;
            }
            bool want_min = coeff >= 0.0;
            double chosen = want_min ? kInf : -kInf;
            forEachCoveredDigit(k, lo, hi, [&](size_t d) {
                double v = knobs_[k].values[d];
                chosen = want_min ? std::min(chosen, v)
                                  : std::max(chosen, v);
            });
            applyKnobHardware(probe, knobs_[k], chosen);
        }
        c_min = cost_.cost(probe.bpeak, probe.ips);
    };

    auto mergeIncumbent = [&](const Point &p) {
        for (const Point &c : incumbents) {
            if (dominatesPoint(c.minPerf, c.cost, p.minPerf, p.cost))
                return;
        }
        incumbents.erase(
            std::remove_if(incumbents.begin(), incumbents.end(),
                           [&](const Point &c) {
                               return dominatesPoint(p.minPerf, p.cost,
                                                     c.minPerf, c.cost);
                           }),
            incumbents.end());
        incumbents.push_back(p);
    };

    // One pool reused across every subgrid; busy time accumulates.
    parallel::ThreadPool pool(workers);
    std::vector<Point> chunk_points;
    chunk_points.reserve(chunk);

    for (size_t lo = 0; lo < total; lo += chunk) {
        if (options.checkExpiry)
            options.checkExpiry();
        const size_t hi = std::min(total, lo + chunk);
        if (prune && !incumbents.empty()) {
            GABLES_SPAN("explore.bounds");
            double p_max = 0.0;
            double c_min = 0.0;
            subgridBounds(lo, hi - 1, p_max, c_min);
            if (dominatedByIncumbent(p_max, c_min)) {
                ++st.subgridsSkipped;
                st.evalsPruned +=
                    static_cast<uint64_t>(hi - lo) * n_use;
                continue;
            }
        }

        GABLES_SPAN("explore.grid");
        chunk_points.resize(hi - lo);
        // One loop index = one pack of consecutive flat indices.
        constexpr size_t W = GablesEvalPack::kWidth;
        const size_t npacks = (hi - lo + W - 1) / W;
        pool.forEach(npacks, [&](size_t pi, int worker) {
            WorkerState &ws = states[static_cast<size_t>(worker)];
            const size_t p0 = lo + pi * W;
            const size_t cnt = std::min(W, hi - p0);
            // Decompose the pack's first flat index once; the
            // remaining lanes advance the digit odometer by one step
            // each instead of re-dividing per lane.
            size_t rest = p0;
            for (size_t k = 0; k < n_knobs; ++k) {
                ws.curDigits[k] = rest % knobs_[k].values.size();
                rest /= knobs_[k].values.size();
            }
            for (size_t w = 0; w < cnt; ++w) {
                if (w != 0) {
                    for (size_t k = 0; k < n_knobs; ++k) {
                        if (++ws.curDigits[k] < knobs_[k].values.size())
                            break;
                        ws.curDigits[k] = 0;
                    }
                }
                // Stage each knob in registration order, skipping
                // digits the lane already carries — the same
                // unchanged-digit skip applyDigits() performs, and
                // gated off by the same `incremental` flag when
                // knobs share a model term (later knobs must then
                // win by re-application).
                size_t *lane_digits = ws.laneDigits.data() + w * n_knobs;
                for (size_t k = 0; k < n_knobs; ++k) {
                    const Knob &knob = knobs_[k];
                    const size_t digit = ws.curDigits[k];
                    if (!ws.incremental || lane_digits[k] != digit) {
                        const double v = knob.values[digit];
                        for (GablesEvalPack &pack : ws.packs)
                            applyKnobLane(pack, w, knob, v);
                        lane_digits[k] = digit;
                    }
                }
            }
            for (GablesEvalPack &pack : ws.packs)
                pack.run(cnt);
            // Linear cost from the pack's own parameter rows: the
            // per-lane sums reduce in IP index order, so cost bits
            // match CostModel::cost() on the hardware arrays
            // applyDigits() maintains.
            double sum_a[W];
            double sum_b[W];
            ws.packs.front().paramSums(sum_a, sum_b);
            const GablesEvalPack &hw = ws.packs.front();
            for (size_t w = 0; w < cnt; ++w) {
                double min_perf = kInf;
                for (GablesEvalPack &pack : ws.packs)
                    min_perf = std::min(min_perf, pack.attainable(w));
                Point &p = chunk_points[p0 - lo + w];
                p.flat = p0 + w;
                p.minPerf = min_perf;
                p.cost = cost_.costPerAcceleration * sum_a[w] +
                         cost_.costPerBpeak * hw.bpeak(w) +
                         cost_.costPerIpBandwidth * sum_b[w];
            }
        });
        const std::vector<double> &busy = pool.busySeconds();
        for (size_t w = 0;
             w < busy.size() && w < st.forStats.busySeconds.size(); ++w)
            st.forStats.busySeconds[w] += busy[w];

        // Merge in enumeration order so the incumbent list stays in
        // enumeration order (appends only ever grow the flat index).
        for (const Point &p : chunk_points)
            mergeIncumbent(p);
    }

    // Materialize the frontier: re-derive each member's SocSpec and
    // per-usecase detail (deterministic, so bit-identical to the
    // values that earned it frontier membership).
    GABLES_SPAN("explore.materialize");
    std::vector<Candidate> out;
    out.reserve(incumbents.size());
    WorkerState &scratch = states.front();
    for (const Point &p : incumbents) {
        Candidate c{base_, 0.0, {}, 0.0, false};
        evaluateOne(p.flat, scratch, c);
        c.pareto = true;
        out.push_back(std::move(c));
    }
    // Equal-cost frontier members necessarily tie on minPerf too
    // (else one would dominate the other), and they sit in
    // enumeration order, so this matches frontier(explore()) exactly.
    std::stable_sort(out.begin(), out.end(),
                     [](const Candidate &a, const Candidate &b) {
                         return a.cost < b.cost;
                     });

    for (const WorkerState &ws : states) {
        for (const GablesEvaluator &ev : ws.evaluators)
            st.evals += ev.evalCount();
        for (const GablesEvalPack &pack : ws.packs)
            st.evals += pack.evalCount();
    }
    for (const GablesEvaluator &ev : probe.evaluators)
        st.evals += ev.evalCount();
    if (stats)
        *stats = st;
    return out;
}

std::vector<Candidate>
DesignExplorer::frontier(const std::vector<Candidate> &candidates)
{
    std::vector<Candidate> out;
    size_t members = 0;
    for (const Candidate &c : candidates)
        members += c.pareto ? 1 : 0;
    out.reserve(members);
    for (const Candidate &c : candidates) {
        if (c.pareto)
            out.push_back(c);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Candidate &a, const Candidate &b) {
                         return a.cost < b.cost;
                     });
    return out;
}

} // namespace gables
