/**
 * @file
 * sim_trace: one op is a `gables sim --metrics --trace` run done
 * through the library. It builds the sd835 simulator, runs the same
 * job on CPU, GPU and DSP with 32 epochs under a stats registry and
 * a trace recorder, serializes the Chrome trace into a counting sink
 * and writes the RunReport. Trace and telemetry dominate the op; no
 * core, analysis, serve or cli code runs.
 */

#include <algorithm>
#include <ostream>

#include "harness.h"
#include "soc/catalog.h"
#include "telemetry/report.h"
#include "telemetry/stats.h"
#include "tracer.h"

namespace perfbench {
namespace {

using gables::SocCatalog;
using gables::SocSpec;
namespace sim = gables::sim;
namespace telemetry = gables::telemetry;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kEpochs = 32;
/** Bytes each engine streams per op; the same for every shape. */
constexpr double kBytesPerEngine = 8.0 * kMiB;

/** A job shape: a working set inside or far beyond the modelled
 * local memories (2 MiB, 1 MiB and 512 KiB), at a low (memory-bound)
 * or high (compute-bound) intensity. */
struct Shape {
    const char *name;
    double workingSet;
    double opsPerByte;
    /** Runs per round. Spilling shapes trace every DRAM, fabric and
     * link interval and cost about twice as much; weighting them 3:1
     * keeps the median op inside one class instead of on the edge
     * between two. */
    size_t repeats;
};

constexpr Shape kShapes[] = {
    {"fit_lo", 256.0 * 1024.0, 0.5, 1},
    {"fit_hi", 256.0 * 1024.0, 32.0, 1},
    {"spill_lo", 64.0 * kMiB, 0.5, 3},
    {"spill_hi", 64.0 * kMiB, 32.0, 3},
};
constexpr size_t kNumShapes = std::size(kShapes);

const char *const kEngines[] = {"CPU", "GPU", "DSP"};

/** What one op produced, as the checks and metrics need it. */
struct OpOutput {
    sim::SocRunStats stats;
    uint64_t traceDigest = 0;
    uint64_t traceBytes = 0;
    uint64_t reportDigest = 0;
    uint64_t reportBytes = 0;
    size_t slices = 0;
    size_t counters = 0;
    double events = 0.0;
    double serviceLogBytes = 0.0;
    double localHits = 0.0;
    double localMisses = 0.0;
};

bool
sameStats(const sim::SocRunStats &a, const sim::SocRunStats &b)
{
    if (a.duration != b.duration || a.dramBytes != b.dramBytes ||
        a.engines.size() != b.engines.size() ||
        a.resources.size() != b.resources.size())
        return false;
    for (size_t i = 0; i < a.engines.size(); ++i) {
        const sim::EngineRunStats &x = a.engines[i], &y = b.engines[i];
        if (x.name != y.name || x.startTime != y.startTime ||
            x.endTime != y.endTime || x.ops != y.ops ||
            x.bytes != y.bytes || x.missBytes != y.missBytes)
            return false;
    }
    for (size_t i = 0; i < a.resources.size(); ++i) {
        const sim::ResourceStats &x = a.resources[i],
                                 &y = b.resources[i];
        if (x.name != y.name || x.bytesServed != y.bytesServed ||
            x.busyTime != y.busyTime || x.utilization != y.utilization)
            return false;
    }
    return true;
}

double
counterValue(const telemetry::StatsRegistry &reg, const std::string &name)
{
    const telemetry::Counter *c = reg.findCounter(name);
    return c ? c->value() : 0.0;
}

std::vector<sim::SimSoc::JobSubmission>
jobsFor(const Shape &shape)
{
    sim::KernelJob job;
    job.workingSetBytes = shape.workingSet;
    job.totalBytes = kBytesPerEngine;
    job.opsPerByte = shape.opsPerByte;
    std::vector<sim::SimSoc::JobSubmission> jobs;
    for (const char *e : kEngines)
        jobs.push_back({e, job});
    return jobs;
}

class SimTrace : public Workload
{
  public:
    void setup(uint64_t seed) override
    {
        order_.clear();
        for (size_t s = 0; s < kNumShapes; ++s)
            for (size_t r = 0; r < kShapes[s].repeats; ++r)
                order_.push_back(s);
        Rng rng(seed);
        rng.shuffle(order_);

        // The reference run of every shape, then one warm-up pass.
        refs_.assign(kNumShapes, OpOutput{});
        for (size_t s = 0; s < kNumShapes; ++s)
            refs_[s] = runShape(kShapes[s], nullptr);
        for (size_t s = 0; s < kNumShapes; ++s)
            runShape(kShapes[s], nullptr);
        outputs_.assign(order_.size(), OpOutput{});
    }

    size_t roundSize() const override { return order_.size(); }

    void runOp(size_t i, Tracer *tracer) override
    {
        outputs_[i] = runShape(kShapes[order_[i]], tracer);
    }

    size_t checkRound() override
    {
        size_t failed = 0;
        for (size_t i = 0; i < order_.size(); ++i) {
            const OpOutput &got = outputs_[i];
            const OpOutput &want = refs_[order_[i]];
            bool ok = got.traceDigest == want.traceDigest &&
                      got.traceBytes == want.traceBytes &&
                      got.reportDigest == want.reportDigest &&
                      sameStats(got.stats, want.stats);
            failed += ok ? 0 : 1;
        }
        return failed;
    }

    uint64_t inputDigest() const override
    {
        Digest d;
        for (size_t s : order_) {
            d.str(kShapes[s].name);
            d.num(kShapes[s].workingSet);
            d.num(kShapes[s].opsPerByte);
        }
        d.num(kBytesPerEngine);
        d.u64(kEpochs);
        return d.value();
    }

    uint64_t outputDigest() const override
    {
        Digest d;
        for (const OpOutput &r : refs_) {
            d.u64(r.traceDigest);
            d.u64(r.reportDigest);
            d.num(r.stats.duration);
        }
        return d.value();
    }

    void corruptReference() override { refs_[0].reportDigest ^= 1; }

    void layerMetrics(const Tracer &tracer, Metrics &m) override
    {
        double run_s = tracer.layer("sim.run").totalSeconds;
        double write_s = tracer.layer("sim.trace_write").totalSeconds;
        size_t ops = tracer.layer("sim.run").count;
        double events = 0.0, trace_bytes = 0.0, slices = 0.0,
               counters = 0.0, report_bytes = 0.0, log_bytes = 0.0;
        for (size_t s : order_) {
            const OpOutput &r = refs_[s];
            events += r.events;
            trace_bytes += static_cast<double>(r.traceBytes);
            slices += static_cast<double>(r.slices);
            counters += static_cast<double>(r.counters);
            report_bytes += static_cast<double>(r.reportBytes);
            log_bytes = std::max(log_bytes, r.serviceLogBytes);
        }
        const double per_op = 1.0 / static_cast<double>(order_.size());
        m["soc.build_ms"] = tracer.p50Ms("soc.build");
        m["sim.run_ms"] = tracer.p50Ms("sim.run");
        m["sim.events"] = events * per_op;
        m["sim.events_per_s"] =
            run_s > 0 ? events * per_op * static_cast<double>(ops) / run_s
                      : 0.0;
        m["sim.trace_write_ms"] = tracer.p50Ms("sim.trace_write");
        m["sim.trace_mb"] = trace_bytes * per_op / 1e6;
        m["sim.trace_mb_per_s"] =
            write_s > 0 ? trace_bytes * per_op / 1e6 *
                              static_cast<double>(ops) / write_s
                        : 0.0;
        m["sim.trace_slices"] = slices * per_op;
        m["sim.trace_counters"] = counters * per_op;
        m["telemetry.report_write_ms"] =
            tracer.p50Ms("telemetry.report_write");
        m["telemetry.report_kb"] = report_bytes * per_op / 1e3;
        m["telemetry.service_log_mb"] = log_bytes / 1e6;
        for (size_t s = 0; s < kNumShapes; ++s) {
            const OpOutput &r = refs_[s];
            double lookups = r.localHits + r.localMisses;
            m[std::string("sim.local_hit_ratio.") + kShapes[s].name] =
                lookups > 0 ? r.localHits / lookups : 0.0;
        }

        // Overhead ratios: bare, registry-only and traced SimSoc::run
        // of every shape, timed here, after the timed phase, so they
        // never enter an end-to-end number.
        double bare = 0.0, registry = 0.0, traced = 0.0;
        for (const Shape &shape : kShapes) {
            bare += medianRunSeconds(shape, false, false);
            registry += medianRunSeconds(shape, true, false);
            traced += medianRunSeconds(shape, true, true);
        }
        m["telemetry.overhead_x"] = registry / bare;
        m["sim.trace_overhead_x"] = traced / bare;
    }

  private:
    OpOutput runShape(const Shape &shape, Tracer *tracer)
    {
        Scope op(tracer, "sim_trace.op");
        OpOutput out;
        std::unique_ptr<sim::SimSoc> soc;
        {
            Scope s(tracer, "soc.build");
            soc = SocCatalog::snapdragon835Sim();
        }
        telemetry::StatsRegistry reg;
        soc->attachTelemetry(&reg);
        sim::TraceRecorder trace;
        soc->attachTracer(&trace);
        {
            Scope s(tracer, "sim.run");
            out.stats = soc->run(jobsFor(shape), kEpochs);
        }
        {
            Scope s(tracer, "sim.trace_write");
            traceSink_.reset();
            std::ostream os(&traceSink_);
            trace.writeChromeTrace(os);
            os.flush();
        }
        {
            Scope s(tracer, "telemetry.report_write");
            telemetry::RunReport report = makeReport(shape, out.stats);
            report.setRegistry(&reg);
            reportSink_.reset();
            std::ostream os(&reportSink_);
            report.write(os);
            os.flush();
        }
        out.traceBytes = traceSink_.bytes();
        out.traceDigest = traceSink_.digest();
        out.reportBytes = reportSink_.bytes();
        out.reportDigest = reportSink_.digest();
        out.slices = trace.events().size();
        out.counters = trace.counterEvents().size();
        out.events = counterValue(reg, "sim.events_executed");
        const telemetry::Gauge *log =
            reg.findGauge("telemetry.service_log_bytes");
        out.serviceLogBytes = log ? log->value() : 0.0;
        for (const char *e : kEngines) {
            out.localHits += counterValue(reg, std::string(e) + ".local.hits");
            out.localMisses +=
                counterValue(reg, std::string(e) + ".local.misses");
        }
        return out;
    }

    /** The report `gables sim --metrics` writes for this run. */
    telemetry::RunReport makeReport(const Shape &shape,
                                    const sim::SocRunStats &stats) const
    {
        telemetry::RunReport report("gables sim", "Snapdragon 835 (sim)");
        report.addConfig("soc", "sd835");
        report.addConfig("engines", "CPU,GPU,DSP");
        report.addConfig("working_set_bytes", shape.workingSet);
        report.addConfig("total_bytes", kBytesPerEngine);
        report.addConfig("ops_per_byte", shape.opsPerByte);
        report.addConfig("epochs", static_cast<long>(kEpochs));
        report.setDuration(stats.duration);
        for (const sim::EngineRunStats &e : stats.engines) {
            report.addEngine({e.name, e.ops, e.bytes, e.missBytes,
                              e.achievedOpsRate()});
            size_t i = spec_.ipIndex(e.name);
            double bw = std::min(spec_.ip(i).bandwidth, spec_.bpeak());
            report.addDelta(e.name,
                            std::min(spec_.ipPeakPerf(i),
                                     shape.opsPerByte * bw),
                            e.achievedOpsRate());
        }
        for (const sim::ResourceStats &r : stats.resources)
            report.addResource(
                {r.name, r.bytesServed, r.busyTime, r.utilization});
        return report;
    }

    /** Median of five SimSoc::run calls of one shape. */
    static double medianRunSeconds(const Shape &shape, bool registry,
                                   bool traced)
    {
        std::vector<double> times;
        for (int rep = 0; rep < 5; ++rep) {
            std::unique_ptr<sim::SimSoc> soc =
                SocCatalog::snapdragon835Sim();
            telemetry::StatsRegistry reg;
            sim::TraceRecorder trace;
            if (registry)
                soc->attachTelemetry(&reg);
            if (traced)
                soc->attachTracer(&trace);
            auto jobs = jobsFor(shape);
            Clock::time_point t0 = Clock::now();
            if (registry)
                soc->run(jobs, kEpochs);
            else
                soc->run(jobs);
            times.push_back(secondsBetween(t0, Clock::now()));
        }
        std::sort(times.begin(), times.end());
        return quantile(times, 0.5);
    }

    /** The spec the report's model-vs-sim deltas compare against. */
    const SocSpec spec_ = SocCatalog::snapdragon835();
    std::vector<size_t> order_;
    std::vector<OpOutput> refs_;
    std::vector<OpOutput> outputs_;
    CountingSink traceSink_;
    CountingSink reportSink_;
};

} // namespace

std::unique_ptr<Workload>
makeSimTrace()
{
    return std::make_unique<SimTrace>();
}

} // namespace perfbench
