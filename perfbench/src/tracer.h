/**
 * @file
 * The harness's own span recorder. Spans are taken around calls into
 * the program's public functions, never inside them, and stay in
 * memory until the run ends; the program's own SpanTracer stays off.
 */

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"

namespace perfbench {

class Tracer
{
  public:
    /** One closed span; times are ns since the tracer was made. */
    struct Span {
        uint32_t name = 0;
        /** Index of the enclosing span in spans(), or kNoParent. */
        uint32_t parent = 0;
        uint64_t op = 0;
        int64_t startNs = 0;
        int64_t endNs = 0;
    };
    static constexpr uint32_t kNoParent = UINT32_MAX;

    /** Totals for every span of one name. */
    struct Layer {
        size_t count = 0;
        double totalSeconds = 0.0;
        /** Duration minus the time covered by child spans. */
        double selfSeconds = 0.0;
        /** Every duration (s); sorted by finish(). */
        std::vector<double> durations;
    };

    /** @param max_spans Spans kept for the span file; totals count
     *                   every span regardless. */
    explicit Tracer(size_t max_spans = size_t{1} << 18);

    /** Ops opened from now on carry this id. */
    void setOp(uint64_t op) { op_ = op; }

    /** Open a span; @p name must outlive the tracer. */
    void begin(const char *name);
    void end();

    /** Sort every layer's durations; call once, after the last span. */
    void finish();

    /** @return Totals by span name (empty Layer if never seen). */
    const Layer &layer(const std::string &name) const;

    /** p50 of a layer's durations in ms (0 if it never ran). */
    double p50Ms(const std::string &name) const;

    /** Span names in order of first use. */
    const std::vector<std::string> &names() const { return names_; }

    const std::vector<Span> &spans() const { return spans_; }
    size_t dropped() const { return dropped_; }

    /** Write every kept span plus the per-name totals as JSON. */
    void writeJson(std::ostream &out, const std::string &workload,
                   uint64_t seed) const;

  private:
    struct Open {
        uint32_t name;
        uint32_t index; // into spans_, or kNoParent if not kept
        int64_t startNs;
        int64_t childNs;
    };
    uint32_t intern(const char *name);
    int64_t nowNs() const;

    Clock::time_point epoch_;
    size_t maxSpans_;
    uint64_t op_ = 0;
    std::vector<Open> stack_;
    std::vector<Span> spans_;
    size_t dropped_ = 0;
    std::unordered_map<std::string, uint32_t> ids_;
    std::unordered_map<const char *, uint32_t> byPointer_;
    std::vector<std::string> names_;
    std::vector<Layer> layers_;
};

/** RAII span; a null tracer makes it a no-op (the untraced path). */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name) : tracer_(tracer)
    {
        if (tracer_)
            tracer_->begin(name);
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->end();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
