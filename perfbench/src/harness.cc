#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "calibrate.h"
#include "tracer.h"

namespace perfbench {

std::unique_ptr<Workload> makeSimTrace();
std::unique_ptr<Workload> makeDesignGrid();
std::unique_ptr<Workload> makeServeMix();
std::unique_ptr<Workload> makeReplayCorpus(const std::string &corpus_dir,
                                           const std::string &scratch_dir);

uint64_t
Rng::next()
{
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

size_t
Rng::below(size_t n)
{
    return static_cast<size_t>(next() % n);
}

std::vector<double>
geomspace(double lo, double hi, size_t n)
{
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = lo * std::pow(hi / lo, static_cast<double>(i) /
                                          static_cast<double>(n - 1));
    return v;
}

gables::SocSpec
drawSoc(Rng &rng, size_t n_ips, std::string name)
{
    // One draw per statement: argument evaluation order is
    // unspecified, and the inputs must not depend on the compiler.
    std::vector<gables::IpSpec> ips;
    for (size_t i = 0; i < n_ips; ++i) {
        gables::IpSpec ip;
        ip.name = "IP" + std::to_string(i);
        ip.acceleration = i == 0 ? 1.0 : rng.uniform(0.5, 40.0);
        ip.bandwidth = rng.uniform(4e9, 40e9);
        ips.push_back(ip);
    }
    const double ppeak = rng.uniform(4e9, 16e9);
    const double bpeak = rng.uniform(10e9, 40e9);
    return gables::SocSpec(std::move(name), ppeak, bpeak, std::move(ips));
}

gables::Usecase
drawUsecase(Rng &rng, size_t n_ips, std::string name)
{
    std::vector<double> share(n_ips);
    double sum = 0.0;
    for (double &x : share)
        sum += (x = rng.uniform(0.05, 1.0));
    std::vector<gables::IpWork> work;
    for (double x : share) {
        const double intensity =
            std::exp(rng.uniform(std::log(0.1), std::log(64.0)));
        work.push_back({x / sum, intensity});
    }
    return gables::Usecase(std::move(name), std::move(work));
}

void
Digest::bytes(const void *data, size_t n)
{
    // FNV-1a over 8-byte words, then the tail bytewise: a multi-MB
    // trace digests in well under a millisecond, so checking it adds
    // little to the serialization it is measured with.
    const unsigned char *p = static_cast<const unsigned char *>(data);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t w;
        std::memcpy(&w, p + i, 8);
        h_ ^= w;
        h_ *= 0x100000001b3ULL;
    }
    for (; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::str(const std::string &s)
{
    u64(s.size());
    bytes(s.data(), s.size());
}

void
Digest::num(double v)
{
    bytes(&v, sizeof v);
}

void
Digest::u64(uint64_t v)
{
    bytes(&v, sizeof v);
}

std::string
hex(uint64_t v)
{
    char buf[17];
    for (int i = 15; i >= 0; --i, v >>= 4)
        buf[i] = "0123456789abcdef"[v & 15];
    buf[16] = '\0';
    return buf;
}

CountingSink::CountingSink()
{
    setp(buf_, buf_ + sizeof buf_);
}

void
CountingSink::drain()
{
    size_t n = static_cast<size_t>(pptr() - pbase());
    digest_.bytes(pbase(), n);
    drained_ += n;
    setp(buf_, buf_ + sizeof buf_);
}

CountingSink::int_type
CountingSink::overflow(int_type ch)
{
    drain();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
        *pptr() = traits_type::to_char_type(ch);
        pbump(1);
    }
    return traits_type::not_eof(ch);
}

int
CountingSink::sync()
{
    drain();
    return 0;
}

uint64_t
CountingSink::bytes() const
{
    return drained_ + static_cast<uint64_t>(pptr() - pbase());
}

uint64_t
CountingSink::digest()
{
    drain();
    return digest_.value();
}

void
CountingSink::reset()
{
    setp(buf_, buf_ + sizeof buf_);
    drained_ = 0;
    digest_ = Digest();
}

double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

Tail
tailPercentile(const std::vector<double> &sorted, size_t min_beyond)
{
    Tail tail;
    const size_t n = sorted.size();
    if (n == 0)
        return tail;
    // Nearest rank: the value at percentile 1 - 1/d has floor(n/d)
    // samples beyond it. Walk p50, p90, p99, p99.9, ... in integers
    // so no rounding moves a sample across the rank.
    tail.percentile = 50.0;
    tail.beyond = n / 2;
    tail.value = sorted[n - tail.beyond - 1];
    for (size_t d = 10; n / d >= min_beyond; d *= 10) {
        tail.percentile = 100.0 - 100.0 / static_cast<double>(d);
        tail.beyond = n / d;
        tail.value = sorted[n - tail.beyond - 1];
    }
    return tail;
}

Phase
runPhase(Workload &w, const PhaseOptions &opts)
{
    Phase phase;
    const size_t n = w.roundSize();
    const size_t min_rounds = opts.tracer ? 4 : 2;
    // Latency samples go into storage sized and written up front, so
    // the process's peak RSS does not grow with the number of ops a
    // run gets through, which depends on the host's speed.
    const size_t max_ops = std::min(n * kMaxRoundsSampled, kMaxOpsSampled);
    phase.opSeconds.assign(max_ops, 0.0);
    size_t sampled = 0;

    // Work timed since the last run of the reference kernel is scaled
    // by the mean of that run and the next (see calibrate.h).
    double before = runReferenceKernel();
    phase.kernelSeconds.push_back(before);
    auto kernelScale = [&] {
        const double after = runReferenceKernel();
        phase.kernelSeconds.push_back(after);
        const double scale = atReferenceSpeed(1.0, before, after);
        before = after;
        return scale;
    };
    // Untraced op latencies since the last kernel run, unscaled.
    std::vector<double> segment;
    segment.reserve(n);

    Clock::time_point start = Clock::now();
    uint64_t op_id = 0;
    while (phase.rounds < min_rounds ||
           phase.setupSeconds.size() < opts.resetups ||
           secondsBetween(start, Clock::now()) < opts.seconds) {
        // Set-up k runs at the first round boundary past k/(r+1) of
        // the phase, so set-up samples the same host drift as the
        // rounds do.
        const size_t k = phase.setupSeconds.size() + 1;
        if (k <= opts.resetups &&
            secondsBetween(start, Clock::now()) >=
                opts.seconds * static_cast<double>(k) /
                    static_cast<double>(opts.resetups + 1)) {
            Clock::time_point t0 = Clock::now();
            w.setup(opts.seed);
            const double seconds = secondsBetween(t0, Clock::now());
            phase.setupSeconds.push_back(seconds * kernelScale());
            continue;
        }
        Tracer *tracer = phase.rounds % 2 == 1 ? opts.tracer : nullptr;
        double raw = 0.0, round = 0.0, unscaled = 0.0;
        Clock::time_point since_kernel = Clock::now();
        for (size_t i = 0; i < n; ++i) {
            if (tracer)
                tracer->setOp(op_id);
            ++op_id;
            Clock::time_point t0 = Clock::now();
            w.runOp(i, tracer);
            Clock::time_point t1 = Clock::now();
            const double op = secondsBetween(t0, t1);
            raw += op;
            unscaled += op;
            if (!tracer)
                segment.push_back(op);
            // The kernel runs at the end of the round and also inside
            // long rounds, so a burst of load that hits a few ops is
            // measured next to them.
            if (i + 1 == n ||
                secondsBetween(since_kernel, t1) >= kKernelEverySeconds) {
                const double scale = kernelScale();
                round += unscaled * scale;
                unscaled = 0.0;
                for (double s : segment)
                    if (sampled < max_ops)
                        phase.opSeconds[sampled++] = s * scale;
                segment.clear();
                since_kernel = Clock::now();
            }
        }
        if (tracer) {
            phase.tracedRoundSeconds.push_back(round);
        } else {
            phase.roundSeconds.push_back(round);
            phase.rawRoundSeconds.push_back(raw);
        }
        // Checks run after the round's clock stops.
        phase.failed += w.checkRound();
        phase.attempted += n;
        ++phase.rounds;
    }

    phase.opSeconds.resize(sampled);
    for (std::vector<double> *v :
         {&phase.opSeconds, &phase.roundSeconds, &phase.tracedRoundSeconds,
          &phase.rawRoundSeconds, &phase.kernelSeconds})
        std::sort(v->begin(), v->end());
    return phase;
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s", "lower"},
        {"wall_s", "s", "lower"},
        {"throughput_per_s", "ops/s", "higher"},
        {"op_p50_ms", "ms", "lower"},
        {"peak_rss_mb", "MB", "lower"},
        {"ok_rate", "ratio", "higher"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> v = {
            {"trace_overhead", "x", "lower"},
            {"op_tail_ms", "ms", "lower"},
            // sim_trace
            {"soc.build_ms", "ms", "lower"},
            {"sim.run_ms", "ms", "lower"},
            {"sim.events", "count", "lower"},
            {"sim.events_per_s", "1/s", "higher"},
            {"sim.trace_write_ms", "ms", "lower"},
            {"sim.trace_mb", "MB", "lower"},
            {"sim.trace_mb_per_s", "MB/s", "higher"},
            {"sim.trace_slices", "count", "lower"},
            {"sim.trace_counters", "count", "lower"},
            {"telemetry.report_write_ms", "ms", "lower"},
            {"telemetry.report_kb", "KB", "lower"},
            {"telemetry.service_log_mb", "MB", "lower"},
            {"telemetry.overhead_x", "x", "lower"},
            {"sim.trace_overhead_x", "x", "lower"},
        };
        for (const char *shape : {"fit_lo", "fit_hi", "spill_lo", "spill_hi"})
            v.push_back({std::string("sim.local_hit_ratio.") + shape,
                         "ratio", "higher"});
        std::vector<MetricSpec> rest = {
            // design_grid
            {"analysis.explore_ms", "ms", "lower"},
            {"analysis.explore_evals", "count", "lower"},
            {"analysis.evals_pruned", "count", "higher"},
            {"analysis.prune_ratio", "ratio", "higher"},
            {"core.explore_evals_per_s", "1/s", "higher"},
            {"analysis.sweep_ms", "ms", "lower"},
            {"core.sweep_points_per_s", "1/s", "higher"},
            {"core.compile_ms", "ms", "lower"},
            {"analysis.robust_ms", "ms", "lower"},
            {"core.ext_eval_ms", "ms", "lower"},
            {"core.ext_evals_per_s", "1/s", "higher"},
            // serve_mix
            {"serve.eval_ms", "ms", "lower"},
            {"serve.sweep_ms", "ms", "lower"},
            {"serve.explore_ms", "ms", "lower"},
            {"serve.advise_ms", "ms", "lower"},
            {"serve.bad_request_ms", "ms", "lower"},
            {"serve.cache_hit_rate", "ratio", "higher"},
            {"serve.model_evals", "count", "lower"},
            {"serve.request_kb", "KB", "lower"},
            {"serve.response_kb", "KB", "lower"},
        };
        v.insert(v.end(), rest.begin(), rest.end());
        // replay_corpus
        for (const char *sub :
             {"sim", "ert", "explore", "sweep", "eval", "advise", "robust",
              "sensitivity", "provision", "validate"})
            v.push_back({std::string("replay.") + sub + "_ms", "ms", "lower"});
        rest = {
            {"cli.run_ms", "ms", "lower"},
            {"replay.overhead_ms", "ms", "lower"},
            {"replay.fields_compared", "count", "higher"},
            {"replay.diffs", "count", "lower"},
        };
        v.insert(v.end(), rest.begin(), rest.end());
        return v;
    }();
    return specs;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "sim_trace", "design_grid", "serve_mix", "replay_corpus"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const std::string &corpus_dir,
             const std::string &scratch_dir)
{
    if (name == "sim_trace")
        return makeSimTrace();
    if (name == "design_grid")
        return makeDesignGrid();
    if (name == "serve_mix")
        return makeServeMix();
    if (name == "replay_corpus")
        return makeReplayCorpus(corpus_dir, scratch_dir);
    return nullptr;
}

} // namespace perfbench
