/**
 * @file
 * Shared helpers for the bench programs. The figure, table and
 * ablation programs print their reproduction with a banner and a
 * paper-vs-measured comparison table. The three timing programs
 * (bench_model_scaling, bench_event_hotpath, bench_serve_loadgen)
 * share the best-of-N harness below: a clock, the fastest-rep
 * measurement and its JSON/stdout rendering.
 */

#ifndef GABLES_BENCH_BENCH_UTIL_H
#define GABLES_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>

#include "util/json_writer.h"
#include "util/strings.h"
#include "util/table.h"

namespace gables {
namespace bench {

/** Print a banner naming the experiment being regenerated. */
inline void
banner(const std::string &experiment, const std::string &what)
{
    std::cout << "\n=== " << experiment << ": " << what << " ===\n";
}

/**
 * A paper-vs-measured table: rows carry the quantity, the paper's
 * value, our value, and the relative error.
 */
class ComparisonTable
{
  public:
    ComparisonTable()
        : table_({"quantity", "paper", "ours", "rel.err"})
    {
        table_.setAlign(0, TextTable::Align::Left);
    }

    /** Add one comparison row; values are formatted by the caller. */
    void
    add(const std::string &quantity, double paper, double ours,
        const std::string &unit, int precision = 4)
    {
        double err = paper != 0.0 ? (ours - paper) / paper : 0.0;
        table_.addRow({quantity,
                       formatDouble(paper, precision) + " " + unit,
                       formatDouble(ours, precision) + " " + unit,
                       formatDouble(err * 100.0, 2) + "%"});
    }

    /** Print the table to stdout. */
    void
    print() const
    {
        std::cout << table_.render();
    }

  private:
    TextTable table_;
};

using Clock = std::chrono::steady_clock;

/** Wall seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Receives checksums of timed work (see consume()). */
inline volatile double consumeSink = 0.0;

/** Store a checksum of timed work so the compiler cannot elide it. */
inline void
consume(double value)
{
    consumeSink = value;
}

/**
 * The fastest rep of a timed workload. `count` is what the workload
 * counts (items or events); `runs` is set only by workloads that also
 * count whole runs, and only those report runs_per_sec.
 */
struct Measurement {
    double perSec = 0.0;
    double nsPer = 0.0;
    double runsPerSec = 0.0;
    uint64_t count = 0;
    uint64_t runs = 0;
    double seconds = 0.0; // wall time of the best (fastest) rep
};

/**
 * Each rep is timed on its own and the fastest rep is reported: the
 * minimum is the measurement least disturbed by scheduler and
 * frequency noise, which keeps the committed baselines stable for the
 * CI regression gates.
 */
class BestOf
{
  public:
    void
    sample(double seconds, uint64_t count, uint64_t runs = 0)
    {
        double rate = static_cast<double>(count) / seconds;
        if (rate <= best_.perSec)
            return;
        best_.perSec = rate;
        best_.nsPer = 1e9 * seconds / static_cast<double>(count);
        best_.runsPerSec = static_cast<double>(runs) / seconds;
        best_.count = count;
        best_.runs = runs;
        best_.seconds = seconds;
    }

    const Measurement &result() const { return best_; }

  private:
    Measurement best_;
};

/**
 * Write @p m as the object @p name with keys `<unit>s_per_sec`,
 * `ns_per_<unit>`, `runs_per_sec` (when runs were counted),
 * `<unit>s` and `seconds` — the schema the committed BENCH_*.json
 * baselines are diffed against.
 */
inline void
writeMeasurement(JsonWriter &json, const std::string &name,
                 const Measurement &m, const std::string &unit)
{
    json.key(name);
    json.beginObject();
    json.kv(unit + "s_per_sec", m.perSec);
    json.kv("ns_per_" + unit, m.nsPer);
    if (m.runs > 0)
        json.kv("runs_per_sec", m.runsPerSec);
    json.kv(unit + "s", static_cast<size_t>(m.count));
    json.kv("seconds", m.seconds);
    json.endObject();
}

/** Print @p m as one indented line of rates. */
inline void
printMeasurement(const std::string &name, const Measurement &m,
                 const std::string &unit)
{
    std::cout << "  " << name << ": " << formatDouble(m.perSec / 1e6, 3)
              << " M " << unit << "s/s, " << formatDouble(m.nsPer, 1)
              << " ns/" << unit;
    if (m.runs > 0)
        std::cout << ", " << formatDouble(m.runsPerSec, 1) << " runs/s";
    std::cout << "\n";
}

} // namespace bench
} // namespace gables

#endif // GABLES_BENCH_BENCH_UTIL_H
