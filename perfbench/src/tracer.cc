#include "tracer.h"

#include <algorithm>

#include "util/json_writer.h"
#include "util/logging.h"

namespace perfbench {

Tracer::Tracer(size_t max_spans)
    : epoch_(Clock::now()), maxSpans_(max_spans)
{
    spans_.reserve(std::min<size_t>(max_spans, size_t{1} << 16));
}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

uint32_t
Tracer::intern(const char *name)
{
    // Span names are literals or strings that outlive the run, so
    // the pointer is a cheap first key.
    auto p = byPointer_.find(name);
    if (p != byPointer_.end())
        return p->second;
    auto it = ids_.find(name);
    if (it != ids_.end())
        return byPointer_[name] = it->second;
    uint32_t id = static_cast<uint32_t>(names_.size());
    byPointer_[name] = id;
    ids_.emplace(name, id);
    names_.emplace_back(name);
    layers_.emplace_back();
    return id;
}

void
Tracer::begin(const char *name)
{
    uint32_t id = intern(name);
    uint32_t index = kNoParent;
    if (spans_.size() < maxSpans_) {
        index = static_cast<uint32_t>(spans_.size());
        Span s;
        s.name = id;
        s.parent = stack_.empty() ? kNoParent : stack_.back().index;
        s.op = op_;
        spans_.push_back(s);
    } else {
        ++dropped_;
    }
    stack_.push_back(Open{id, index, nowNs(), 0});
}

void
Tracer::end()
{
    GABLES_ASSERT(!stack_.empty(), "perfbench: span end without begin");
    int64_t now = nowNs();
    Open open = stack_.back();
    stack_.pop_back();
    int64_t dur = now - open.startNs;
    if (!stack_.empty())
        stack_.back().childNs += dur;
    Layer &layer = layers_[open.name];
    ++layer.count;
    layer.totalSeconds += dur * 1e-9;
    layer.selfSeconds += (dur - open.childNs) * 1e-9;
    layer.durations.push_back(dur * 1e-9);
    if (open.index != kNoParent) {
        spans_[open.index].startNs = open.startNs;
        spans_[open.index].endNs = now;
    }
}

void
Tracer::finish()
{
    for (Layer &layer : layers_)
        std::sort(layer.durations.begin(), layer.durations.end());
}

const Tracer::Layer &
Tracer::layer(const std::string &name) const
{
    static const Layer empty;
    auto it = ids_.find(name);
    return it == ids_.end() ? empty : layers_[it->second];
}

double
Tracer::p50Ms(const std::string &name) const
{
    const Layer &l = layer(name);
    return l.durations.empty() ? 0.0 : quantile(l.durations, 0.5) * 1e3;
}

void
Tracer::writeJson(std::ostream &out, const std::string &workload,
                  uint64_t seed) const
{
    gables::JsonWriter json(out, false);
    json.beginObject();
    json.kv("workload", workload);
    json.kv("seed", static_cast<size_t>(seed));
    json.kv("spans_kept", spans_.size());
    json.kv("spans_dropped", dropped_);
    json.key("layers");
    json.beginObject();
    for (size_t i = 0; i < names_.size(); ++i) {
        const Layer &l = layers_[i];
        json.key(names_[i]);
        json.beginObject();
        json.kv("count", l.count);
        json.kv("total_ms", l.totalSeconds * 1e3);
        json.kv("self_ms", l.selfSeconds * 1e3);
        json.kv("p50_ms", p50Ms(names_[i]));
        json.endObject();
    }
    json.endObject();
    json.key("names");
    json.beginArray();
    for (const std::string &n : names_)
        json.value(n);
    json.endArray();
    // [name index, parent span index (-1 = root), op id, start ns,
    // end ns], in the order the spans opened.
    json.key("spans");
    json.beginArray();
    for (const Span &s : spans_) {
        json.beginArray();
        json.value(static_cast<long>(s.name));
        json.value(s.parent == kNoParent ? -1L
                                         : static_cast<long>(s.parent));
        json.value(static_cast<size_t>(s.op));
        json.value(static_cast<long>(s.startNs));
        json.value(static_cast<long>(s.endNs));
        json.endArray();
    }
    json.endArray();
    json.endObject();
    out << '\n';
}

} // namespace perfbench
