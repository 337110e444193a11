/**
 * @file
 * perfbench: run one workload for a number of seconds and print its
 * metrics. Usage:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--corpus DIR] [--scratch DIR] [--spans FILE]
 *
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics. With --trace 0 the metrics are the
 * end-to-end ones; with --trace 1 the timed phase alternates untraced
 * and traced rounds, and the metrics are the per-layer ones plus
 * trace_overhead (traced over untraced median round time) and
 * op_tail_ms. The spans of the traced rounds go to the --spans file
 * at exit. Every time is scaled to the reference host's speed (see
 * calibrate.h); stdout also shows the unscaled median round time.
 */

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "calibrate.h"
#include "harness.h"
#include "tracer.h"
#include "util/json_writer.h"
#include "util/logging.h"

namespace {

using namespace perfbench;

/** Set-ups per untraced run: one before the timed phase, the rest
 * spread through it. */
constexpr size_t kSetups = 9;

int
usage()
{
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--corpus DIR] [--scratch DIR] "
                 "[--spans FILE]\nworkloads:";
    for (const std::string &w : workloadNames())
        std::cerr << ' ' << w;
    std::cerr << '\n';
    return 2;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printResult(size_t attempted, size_t failed,
            const std::vector<MetricSpec> &specs, const Metrics &values)
{
    std::cout << "\nmetric                          value  unit\n";
    for (const MetricSpec &spec : specs)
        std::cout << std::left << std::setw(28) << spec.name << ' '
                  << std::right << std::setw(14) << std::setprecision(6)
                  << values.at(spec.name) << "  " << spec.unit << '\n';
    std::ostringstream out;
    gables::JsonWriter json(out, false);
    json.beginObject();
    json.kv("correct", failed == 0 && attempted > 0);
    json.kv("attempted", attempted);
    json.kv("failed", failed);
    json.key("metrics");
    json.beginObject();
    for (const MetricSpec &spec : specs) {
        json.key(spec.name);
        json.beginObject();
        json.kv("value", values.at(spec.name));
        json.kv("unit", spec.unit);
        json.endObject();
    }
    json.endObject();
    json.endObject();
    std::cout << out.str() << std::endl;
}

int
run(int argc, char **argv)
{
    std::string workload, corpus = "tests/corpus",
                          scratch = ".bench_build/perfbench-scratch",
                          spans_path;
    long long seed = -1;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], value = argv[i + 1];
        try {
            if (flag == "--workload")
                workload = value;
            else if (flag == "--seed")
                seed = std::stoll(value);
            else if (flag == "--seconds")
                seconds = std::stod(value);
            else if (flag == "--trace")
                trace = std::stoi(value);
            else if (flag == "--corpus")
                corpus = value;
            else if (flag == "--scratch")
                scratch = value;
            else if (flag == "--spans")
                spans_path = value;
            else
                return usage();
        } catch (const std::exception &) {
            return usage();
        }
    }
    if (argc % 2 == 0 || seed < 0 || !(seconds > 0.0) ||
        (trace != 0 && trace != 1))
        return usage();
    std::unique_ptr<Workload> w = makeWorkload(workload, corpus, scratch);
    if (!w)
        return usage();

    // The program's log lines (info lines per command, one per
    // malformed serve request) are formatted as usual but dropped
    // here, so the terminal's cost is not measured.
    CountingSink log_sink;
    std::ostream log(&log_sink);
    gables::setLogSink(&log);
    struct RestoreLog {
        ~RestoreLog() { gables::setLogSink(nullptr); }
    } restore_log;

    // Set-up runs once before the timed phase and again, from
    // scratch, at evenly spaced points inside it; the median of all
    // of them is setup_s. Spread over the run, the set-ups see the
    // same drift of the host as the rounds, not just its first second.
    // Like every time reported, it is scaled to the reference host's
    // speed by runs of the reference kernel around it.
    const double kernel_before = runReferenceKernel();
    Clock::time_point t0 = Clock::now();
    w->setup(static_cast<uint64_t>(seed));
    const double first_setup = secondsBetween(t0, Clock::now());
    std::vector<double> setups{
        atReferenceSpeed(first_setup, kernel_before, runReferenceKernel())};
    std::cout << "workload " << workload << ", seed " << seed << ", "
              << w->roundSize() << " ops per round\n"
              << "input_digest  " << hex(w->inputDigest()) << '\n'
              << "output_digest " << hex(w->outputDigest()) << '\n';

    Metrics values;
    if (trace == 0) {
        PhaseOptions opts;
        opts.seconds = seconds;
        opts.resetups = kSetups - 1;
        opts.seed = static_cast<uint64_t>(seed);
        Phase phase = runPhase(*w, opts);
        setups.insert(setups.end(), phase.setupSeconds.begin(),
                      phase.setupSeconds.end());
        std::sort(setups.begin(), setups.end());
        Tail tail = tailPercentile(phase.opSeconds);
        const double wall = quantile(phase.roundSeconds, 0.5);
        values["setup_s"] = quantile(setups, 0.5);
        values["wall_s"] = wall;
        values["throughput_per_s"] =
            static_cast<double>(w->roundSize()) / wall;
        values["op_p50_ms"] = quantile(phase.opSeconds, 0.5) * 1e3;
        values["peak_rss_mb"] = peakRssMb();
        values["ok_rate"] =
            1.0 - static_cast<double>(phase.failed) /
                      static_cast<double>(phase.attempted);
        std::cout << phase.rounds << " rounds, " << phase.attempted
                  << " ops, " << phase.failed << " failed (error_rate "
                  << static_cast<double>(phase.failed) /
                         static_cast<double>(phase.attempted)
                  << ")\nop tail (op_tail_ms, reported by --trace 1): p"
                  << tail.percentile << " of " << phase.opSeconds.size()
                  << " ops, " << tail.beyond << " beyond it, "
                  << tail.value * 1e3
                  << " ms\nsetup_s is the median of " << setups.size()
                  << " set-ups, " << setups.front() << " to " << setups.back()
                  << " s\nreference kernel: median "
                  << quantile(phase.kernelSeconds, 0.5) * 1e3
                  << " ms over " << phase.kernelSeconds.size()
                  << " runs (" << kReferenceKernelSeconds * 1e3
                  << " ms at reference speed); unscaled wall_s "
                  << quantile(phase.rawRoundSeconds, 0.5) << " s\n";
        printResult(phase.attempted, phase.failed, endToEndMetrics(),
                    values);
        return 0;
    }

    Tracer tracer;
    PhaseOptions opts;
    opts.seconds = seconds;
    opts.tracer = &tracer;
    Phase phase = runPhase(*w, opts);
    tracer.finish();
    w->layerMetrics(tracer, values);
    values["trace_overhead"] = quantile(phase.tracedRoundSeconds, 0.5) /
                               quantile(phase.roundSeconds, 0.5);
    // The tail of the untraced rounds' ops: on a shared host it does
    // not repeat within a tenth on every workload, so it is reported
    // here rather than as an end-to-end metric.
    const Tail tail = tailPercentile(phase.opSeconds);
    values["op_tail_ms"] = tail.value * 1e3;
    std::cout << "op_tail_ms is p" << tail.percentile << " of "
              << phase.opSeconds.size() << " untraced ops, " << tail.beyond
              << " beyond it\n";
    // A layer the workload never calls reads 0.
    for (const MetricSpec &spec : perLayerMetrics())
        values.emplace(spec.name, 0.0);
    for (const auto &[name, value] : values) {
        bool known = false;
        for (const MetricSpec &spec : perLayerMetrics())
            known = known || spec.name == name;
        if (!known)
            gables::fatal("perfbench: unlisted per-layer metric " + name);
    }
    if (!spans_path.empty()) {
        std::filesystem::path p(spans_path);
        if (p.has_parent_path())
            std::filesystem::create_directories(p.parent_path());
        std::ofstream out(spans_path);
        tracer.writeJson(out, workload, static_cast<uint64_t>(seed));
        if (!out)
            gables::fatal("cannot write span file '" + spans_path + "'");
        std::cout << "spans: " << tracer.spans().size() << " kept, "
                  << tracer.dropped() << " dropped, in " << spans_path
                  << '\n';
    }
    std::cout << "\nspan                         count    total_ms     self_ms"
                 "      p50_ms\n";
    for (const std::string &name : tracer.names()) {
        const Tracer::Layer &l = tracer.layer(name);
        std::cout << std::left << std::setw(26) << name << std::right
                  << std::setw(9) << l.count << std::fixed
                  << std::setprecision(3) << std::setw(12)
                  << l.totalSeconds * 1e3 << std::setw(12)
                  << l.selfSeconds * 1e3 << std::setw(12)
                  << tracer.p50Ms(name) << '\n';
        std::cout.unsetf(std::ios::fixed);
    }
    printResult(phase.attempted, phase.failed, perLayerMetrics(), values);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &err) {
        std::cerr << "perfbench: " << err.what() << '\n';
        return 1;
    }
}
