#include "serve/service.h"

#include <chrono>
#include <optional>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "analysis/advisor.h"
#include "analysis/explorer.h"
#include "core/gables.h"
#include "core/serialize.h"
#include "parallel/parallel_for.h"
#include "replay/bundle.h"
#include "serve/protocol.h"
#include "soc/config.h"
#include "telemetry/report.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/parse.h"

namespace gables {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** A tagged protocol error; process() turns it into a response. */
struct RequestError {
    ServeError error;
};

[[noreturn]] void
badRequest(const std::string &message)
{
    throw RequestError{ServeError{ErrorKind::BadRequest, message}};
}

/** Per-request deadline: "deadline_ms" 0 is instantly expired. */
class Deadline
{
  public:
    Deadline(const JsonValue &req, Clock::time_point start)
        : start_(start)
    {
        if (!req.has("deadline_ms"))
            return;
        const JsonValue &v = req.at("deadline_ms");
        if (!v.isNumber() || v.asNumber() < 0)
            badRequest(
                "\"deadline_ms\" must be a non-negative number");
        ms_ = v.asNumber();
    }

    bool expired() const
    {
        return ms_ >= 0 &&
               secondsSince(start_) * 1000.0 >= ms_;
    }

  private:
    Clock::time_point start_;
    double ms_ = -1.0;
};

/** @return Object member @p key, shape-checked as a number. */
double
numberField(const JsonValue &obj, const std::string &key)
{
    if (!obj.has(key) || !obj.at(key).isNumber())
        badRequest("missing or non-numeric \"" + key + "\"");
    return obj.at(key).asNumber();
}

/** @return Optional string member @p key, or @p fallback. */
std::string
stringField(const JsonValue &obj, const std::string &key,
            const std::string &fallback)
{
    if (!obj.has(key))
        return fallback;
    if (!obj.at(key).isString())
        badRequest("\"" + key + "\" must be a string");
    return obj.at(key).asString();
}

/**
 * Resolve the request's model inputs: inline "soc"+"usecase"
 * objects, or "config" (server-side file path) with an optional
 * "usecase" name.
 */
std::pair<SocSpec, Usecase>
resolvePair(const JsonValue &req)
{
    if (req.has("config")) {
        if (!req.at("config").isString())
            badRequest("\"config\" must be a file-path string");
        SocConfig cfg = loadSocConfig(req.at("config").asString());
        std::optional<std::string> name;
        if (req.has("usecase")) {
            if (!req.at("usecase").isString())
                badRequest("with \"config\", \"usecase\" must be a "
                           "usecase name");
            name = req.at("usecase").asString();
        }
        return {cfg.soc, cfg.select(name)};
    }
    if (!req.has("soc") || !req.has("usecase"))
        badRequest("request needs inline \"soc\" and \"usecase\" "
                   "objects or a \"config\" path");
    try {
        return {socFromJson(req.at("soc")),
                usecaseFromJson(req.at("usecase"))};
    } catch (const ConfigError &err) {
        // A shape error; out-of-range values fail SocSpec/Usecase
        // validation as plain FatalErrors and answer "config".
        badRequest(err.message());
    }
}

/** Resolve a sweep/advise "ip" field (index or name) to an index. */
size_t
resolveIp(const JsonValue &req, const SocSpec &soc)
{
    if (!req.has("ip"))
        badRequest("missing \"ip\" (index or IP name)");
    const JsonValue &v = req.at("ip");
    if (v.isNumber()) {
        double d = v.asNumber();
        if (d < 0 || d >= static_cast<double>(soc.numIps()) ||
            d != static_cast<double>(static_cast<size_t>(d)))
            badRequest("\"ip\" index out of range");
        return static_cast<size_t>(d);
    }
    if (v.isString())
        return soc.ipIndex(v.asString());
    badRequest("\"ip\" must be an index or an IP name");
}

/** Re-render a JSON document compactly onto one line. */
std::string
compactJson(const std::string &text)
{
    JsonValue value = parseJson(text);
    std::ostringstream out;
    JsonWriter json(out, false);
    replay::writeJsonValue(json, value);
    return out.str();
}

/** What an op handler uses besides the request, and the counts it
 * reports back (ServeService::Outcome's). */
struct OpContext {
    const Deadline &deadline;
    EvaluatorCache &cache;
    ServeService &service;
    uint64_t sweepPoints = 0;
    uint64_t modelEvals = 0;
    bool shutdown = false;
    std::shared_ptr<EvaluatorCache::Entry> cacheEntry{};
    bool cacheHit = false;
};

std::string
handleEval(const JsonValue &req, OpContext &ctx)
{
    auto [soc, usecase] = resolvePair(req);
    bool detail = req.has("detail") && req.at("detail").isBool() &&
                  req.at("detail").asBool();
    bool hit = false;
    std::shared_ptr<EvaluatorCache::Entry> entry =
        ctx.cache.acquire(soc, usecase, &hit);
    ctx.cacheEntry = entry;
    ctx.cacheHit = hit;
    ctx.modelEvals = 1;
    // Reused across requests on this thread: evaluate() into warm
    // scratch performs no allocations.
    thread_local GablesResult scratch;
    std::ostringstream out;
    {
        std::lock_guard<std::mutex> lock(entry->mutex);
        entry->evaluator.evaluate(scratch);
        JsonWriter json(out, false);
        json.beginObject();
        json.kv("attainable_ops_per_sec", scratch.attainable);
        json.kv("bottleneck", toString(scratch.bottleneck));
        json.kv("bottleneck_label",
                scratch.bottleneckLabel(entry->soc));
        json.kv("cache_hit", hit);
        if (detail) {
            json.kv("memory_time", scratch.memoryTime);
            json.kv("memory_perf_bound", scratch.memoryPerfBound);
            json.kv("average_intensity", scratch.averageIntensity);
            json.kv("total_data_bytes_per_op",
                    scratch.totalDataBytes);
            json.key("ips");
            json.beginArray();
            for (size_t i = 0; i < scratch.ips.size(); ++i) {
                const IpTiming &t = scratch.ips[i];
                json.beginObject();
                json.kv("name", entry->soc.ip(i).name);
                json.kv("compute_time", t.computeTime);
                json.kv("data_bytes", t.dataBytes);
                json.kv("transfer_time", t.transferTime);
                json.kv("time", t.time);
                json.kv("perf_bound", t.perfBound);
                json.endObject();
            }
            json.endArray();
        }
        json.endObject();
    }
    return out.str();
}

std::string
handleSweep(const JsonValue &req, OpContext &ctx)
{
    auto [soc, usecase] = resolvePair(req);
    std::string axis = stringField(req, "axis", "");
    if (axis != "intensity" && axis != "fraction" && axis != "bpeak")
        badRequest("\"axis\" must be \"intensity\", \"fraction\", "
                   "or \"bpeak\"");
    if (!req.has("values") || !req.at("values").isArray() ||
        req.at("values").size() == 0)
        badRequest("missing non-empty \"values\" array");
    std::vector<double> values;
    values.reserve(req.at("values").size());
    for (const JsonValue &v : req.at("values").items()) {
        if (!v.isNumber())
            badRequest("\"values\" entries must be numbers");
        values.push_back(v.asNumber());
    }
    size_t ip = axis == "bpeak" ? 0 : resolveIp(req, soc);

    bool hit = false;
    std::shared_ptr<EvaluatorCache::Entry> entry =
        ctx.cache.acquire(soc, usecase, &hit);
    ctx.cacheEntry = entry;
    ctx.cacheHit = hit;
    // The cached evaluator is only read (broadcast into a pack),
    // never mutated, so a mid-sweep error leaves the entry untouched.
    constexpr size_t W = GablesEvalPack::kWidth;
    GablesEvalPack pack = [&] {
        std::lock_guard<std::mutex> lock(entry->mutex);
        return GablesEvalPack(entry->evaluator);
    }();
    std::vector<double> attainable;
    attainable.reserve(values.size());
    // Poll the deadline about every 1024 points.
    size_t next_check = 1023;
    for (size_t p0 = 0; p0 < values.size(); p0 += W) {
        if (p0 + W > next_check) {
            if (ctx.deadline.expired())
                throw RequestError{ServeError{
                    ErrorKind::Deadline,
                    "deadline expired mid-sweep after " +
                        std::to_string(p0) + " points"}};
            next_check += 1024;
        }
        const size_t cnt = std::min(W, values.size() - p0);
        const double *vs = values.data() + p0;
        if (axis == "intensity")
            pack.setIntensityRow(ip, vs, cnt);
        else if (axis == "fraction")
            pack.setFractionRow(ip, vs, cnt);
        else
            pack.setBpeakLanes(vs, cnt);
        pack.run(cnt);
        for (size_t w = 0; w < cnt; ++w)
            attainable.push_back(pack.attainable(w));
    }
    ctx.sweepPoints = ctx.modelEvals = attainable.size();

    std::ostringstream out;
    JsonWriter json(out, false);
    json.beginObject();
    json.numberArray("attainable_ops_per_sec", attainable);
    json.kv("points", attainable.size());
    json.kv("cache_hit", hit);
    json.endObject();
    return out.str();
}

std::string
handleExplore(const JsonValue &req, OpContext &ctx)
{
    auto [soc, usecase] = resolvePair(req);
    CostModel cost;
    if (req.has("cost")) {
        const JsonValue &c = req.at("cost");
        if (!c.isObject())
            badRequest("\"cost\" must be an object");
        if (c.has("per_acceleration"))
            cost.costPerAcceleration =
                numberField(c, "per_acceleration");
        if (c.has("per_bpeak"))
            cost.costPerBpeak = numberField(c, "per_bpeak");
        if (c.has("per_ip_bandwidth"))
            cost.costPerIpBandwidth =
                numberField(c, "per_ip_bandwidth");
    }
    DesignExplorer explorer(soc, {usecase}, cost);
    if (!req.has("sweep") || !req.at("sweep").isArray() ||
        req.at("sweep").size() == 0)
        badRequest("missing non-empty \"sweep\" array");
    for (const JsonValue &s : req.at("sweep").items()) {
        if (!s.isObject())
            badRequest("each \"sweep\" entry must be an object");
        std::string knob = stringField(s, "knob", "");
        if (!s.has("values") || !s.at("values").isArray() ||
            s.at("values").size() == 0)
            badRequest("sweep entries need a non-empty \"values\" "
                       "array");
        std::vector<double> values;
        for (const JsonValue &v : s.at("values").items()) {
            if (!v.isNumber())
                badRequest("sweep \"values\" must be numbers");
            values.push_back(v.asNumber());
        }
        if (knob == "bpeak") {
            explorer.sweepBpeak(std::move(values));
        } else if (knob == "acceleration") {
            explorer.sweepAcceleration(resolveIp(s, soc),
                                       std::move(values));
        } else if (knob == "ip_bandwidth") {
            explorer.sweepIpBandwidth(resolveIp(s, soc),
                                      std::move(values));
        } else {
            badRequest("sweep \"knob\" must be \"bpeak\", "
                       "\"acceleration\", or \"ip_bandwidth\"" +
                       didYouMean(knob, {"bpeak", "acceleration",
                                         "ip_bandwidth"}));
        }
    }

    // Requests stay serial internally; batch-level parallelism is
    // the daemon's scaling axis.
    ExploreOptions opts;
    opts.jobs = 1;
    opts.checkExpiry = [&ctx] {
        if (ctx.deadline.expired())
            throw RequestError{ServeError{
                ErrorKind::Deadline, "deadline expired mid-explore"}};
    };
    ExploreStats stats;
    std::vector<Candidate> frontier =
        explorer.exploreFrontier(opts, &stats);
    ctx.modelEvals = stats.evals;

    std::ostringstream out;
    JsonWriter json(out, false);
    json.beginObject();
    json.kv("grid_size", explorer.gridSize());
    json.kv("evals", static_cast<size_t>(stats.evals));
    json.kv("evals_pruned", static_cast<size_t>(stats.evalsPruned));
    json.kv("subgrids_skipped",
            static_cast<size_t>(stats.subgridsSkipped));
    json.key("frontier");
    json.beginArray();
    for (const Candidate &c : frontier) {
        json.beginObject();
        json.kv("bpeak_bytes_per_sec", c.soc.bpeak());
        std::vector<double> accels, bandwidths;
        for (const IpSpec &ip : c.soc.ips()) {
            accels.push_back(ip.acceleration);
            bandwidths.push_back(ip.bandwidth);
        }
        json.numberArray("accelerations", accels);
        json.numberArray("ip_bandwidths_bytes_per_sec", bandwidths);
        json.kv("min_perf_ops_per_sec", c.minPerf);
        json.kv("cost", c.cost);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return out.str();
}

std::string
handleAdvise(const JsonValue &req, OpContext &)
{
    auto [soc, usecase] = resolvePair(req);
    Advisor::Options options;
    if (req.has("max_scale"))
        options.maxScale = numberField(req, "max_scale");
    if (req.has("min_gain"))
        options.minGain = numberField(req, "min_gain");
    if (req.has("max_intensity_scale"))
        options.maxIntensityScale =
            numberField(req, "max_intensity_scale");
    std::vector<Advice> advice =
        Advisor::advise(soc, usecase, options);

    std::ostringstream out;
    JsonWriter json(out, false);
    json.beginObject();
    json.key("advice");
    json.beginArray();
    for (const Advice &a : advice) {
        json.beginObject();
        json.kv("kind", toString(a.kind));
        json.kv("ip", a.ip);
        json.kv("description", a.description);
        json.kv("before", a.before);
        json.kv("after", a.after);
        json.kv("attainable_ops_per_sec", a.newAttainable);
        json.kv("gain", a.gain);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return out.str();
}

/** One serve op. */
struct Op {
    const char *name;
    std::string (*handle)(const JsonValue &req, OpContext &ctx);
};

/** Every op: dispatch, the per-op counters and the did-you-mean
 * suggestions all read this table. */
const Op kOps[] = {
    {"ping",
     [](const JsonValue &, OpContext &) -> std::string {
         return "{\"pong\": true}";
     }},
    {"eval", handleEval},
    {"sweep", handleSweep},
    {"explore", handleExplore},
    {"advise", handleAdvise},
    {"stats",
     [](const JsonValue &, OpContext &ctx) {
         return compactJson(ctx.service.statsReportJson());
     }},
    {"shutdown",
     [](const JsonValue &, OpContext &ctx) -> std::string {
         ctx.shutdown = true;
         return "{\"shutting_down\": true}";
     }},
};

} // namespace

ServeService::ServeService(const ServeOptions &options)
    : options_(options), cache_(options.cacheCapacity)
{
    GABLES_ASSERT(options.jobs >= 1, "serve jobs must be >= 1");
    if (options_.jobs > 1)
        pool_ = std::make_unique<parallel::ThreadPool>(options_.jobs);
    if (!options_.recordPath.empty()) {
        record_.open(options_.recordPath, std::ios::trunc);
        if (!record_)
            fatal("cannot open request record '" +
                  options_.recordPath + "' for writing");
    }
    stats_.requests =
        &registry_.counter("serve.requests", "requests handled");
    stats_.responsesOk =
        &registry_.counter("serve.responses_ok",
                           "successful responses");
    stats_.responsesError =
        &registry_.counter("serve.responses_error",
                           "error responses");
    stats_.deadlineExpired = &registry_.counter(
        "serve.deadline_expired",
        "requests refused or abandoned past their deadline");
    stats_.sweepPoints = &registry_.counter(
        "serve.sweep_points", "sweep grid points served");
    stats_.modelEvals = &registry_.counter(
        "serve.model_evals",
        "model evaluations performed by request handlers");
    stats_.bytesIn =
        &registry_.counter("serve.bytes_in",
                           "request bytes received");
    stats_.bytesOut =
        &registry_.counter("serve.bytes_out",
                           "response bytes produced");
    stats_.requestSeconds = &registry_.distribution(
        "serve.request_seconds", "wall-clock seconds per request");
    // process() maps every request onto one of these op labels
    // ("unknown" for unrecognized ops, "invalid" for unparseable
    // requests), so commit() never needs to register a counter.
    std::vector<std::string> labels;
    for (const Op &op : kOps)
        labels.push_back(op.name);
    labels.push_back("unknown");
    labels.push_back("invalid");
    for (const std::string &op : labels)
        stats_.ops[op] = &registry_.counter("serve.op." + op,
                                            "requests with op " + op);
}

ServeService::~ServeService() = default;

ServeService::Outcome
ServeService::process(const std::string &line)
{
    Outcome outcome;
    Clock::time_point t0 = Clock::now();
    std::string id = "null";
    try {
        JsonValue req;
        try {
            req = parseJson(line);
        } catch (const FatalError &err) {
            badRequest(std::string("malformed request JSON: ") +
                       err.what());
        }
        if (!req.isObject())
            badRequest("request must be a JSON object");
        if (req.has("id"))
            id = renderId(&req.at("id"));
        std::string op = stringField(req, "op", "");
        if (op.empty())
            badRequest("missing \"op\" string");
        const Op *handler = nullptr;
        for (const Op &cand : kOps)
            if (op == cand.name)
                handler = &cand;
        outcome.op = handler ? op : "unknown";
        if (!handler) {
            std::vector<std::string> names;
            for (const Op &cand : kOps)
                names.push_back(cand.name);
            badRequest("unknown op '" + op + "'" +
                       didYouMean(op, names));
        }

        Deadline deadline(req, t0);
        if (deadline.expired())
            throw RequestError{ServeError{
                ErrorKind::Deadline,
                "deadline expired before processing began"}};

        OpContext ctx{deadline, cache_, *this};
        std::string result = handler->handle(req, ctx);
        outcome.sweepPoints = ctx.sweepPoints;
        outcome.modelEvals = ctx.modelEvals;
        outcome.shutdown = ctx.shutdown;
        outcome.cacheEntry = std::move(ctx.cacheEntry);
        outcome.cacheHit = ctx.cacheHit;
        if (deadline.expired())
            throw RequestError{ServeError{
                ErrorKind::Deadline,
                "deadline expired during processing"}};
        outcome.response = okResponse(id, result);
        outcome.ok = true;
    } catch (const RequestError &err) {
        outcome.deadlineExpired =
            err.error.kind == ErrorKind::Deadline;
        outcome.response = errorResponse(id, err.error);
    } catch (const FatalError &err) {
        // Model/config-layer diagnostics: the request was understood
        // but its inputs are invalid.
        outcome.response = errorResponse(
            id, ServeError{ErrorKind::Config, err.what()});
    } catch (const std::exception &err) {
        outcome.response = errorResponse(
            id, ServeError{ErrorKind::Internal, err.what()});
    }
    outcome.seconds = secondsSince(t0);
    return outcome;
}

void
ServeService::commit(const std::string &line, const Outcome &outcome)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    stats_.requests->add();
    (outcome.ok ? stats_.responsesOk : stats_.responsesError)->add();
    auto op_it = stats_.ops.find(outcome.op);
    if (op_it != stats_.ops.end())
        op_it->second->add();
    else
        registry_
            .counter("serve.op." + outcome.op,
                     "requests with op " + outcome.op)
            .add();
    if (outcome.deadlineExpired)
        stats_.deadlineExpired->add();
    if (outcome.sweepPoints > 0)
        stats_.sweepPoints->add(
            static_cast<double>(outcome.sweepPoints));
    if (outcome.modelEvals > 0)
        stats_.modelEvals->add(
            static_cast<double>(outcome.modelEvals));
    stats_.requestSeconds->sample(outcome.seconds);
    stats_.bytesIn->add(static_cast<double>(line.size()));
    stats_.bytesOut->add(static_cast<double>(outcome.response.size()));
    if (record_.is_open()) {
        JsonWriter json(record_, false);
        json.beginObject();
        json.kv("request", line);
        json.kv("response", outcome.response);
        json.endObject();
        record_ << '\n';
        record_.flush();
    }
    if (outcome.shutdown)
        shutdown_.store(true);
}

std::string
ServeService::handleLine(const std::string &line)
{
    Outcome outcome = process(line);
    std::string response = outcome.response;
    commit(line, outcome);
    return response;
}

std::vector<std::string>
ServeService::handleBatch(const std::vector<std::string> &lines)
{
    std::vector<std::string> responses;
    responses.reserve(lines.size());
    if (pool_ && lines.size() > 1) {
        // Workers can finish requests out of order, so a pair's first
        // request may find it cached by a later one. Report cache_hit
        // as serial handling would: a hit iff the entry was resident
        // before the batch or an earlier request of it used the entry.
        // (Holding the entries keeps their addresses unique.)
        const std::vector<std::shared_ptr<EvaluatorCache::Entry>> before =
            cache_.entries();
        std::unordered_set<const EvaluatorCache::Entry *> seen;
        for (const auto &entry : before)
            seen.insert(entry.get());
        std::vector<Outcome> outcomes(lines.size());
        pool_->forEach(lines.size(), [&](size_t i, int) {
            outcomes[i] = process(lines[i]);
        });
        // Telemetry and the record tee commit in request order, so a
        // batch is observationally identical to serial handling.
        for (size_t i = 0; i < lines.size(); ++i) {
            Outcome &o = outcomes[i];
            if (o.cacheEntry) {
                const bool hit = !seen.insert(o.cacheEntry.get()).second;
                if (o.ok && hit != o.cacheHit) {
                    const size_t at = o.response.rfind("\"cache_hit\":");
                    o.response.replace(at + 12, o.cacheHit ? 4 : 5,
                                       hit ? "true" : "false");
                }
            }
            commit(lines[i], outcomes[i]);
            responses.push_back(std::move(outcomes[i].response));
        }
        return responses;
    }
    for (const std::string &line : lines)
        responses.push_back(handleLine(line));
    return responses;
}

std::string
ServeService::statsReportJson()
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    registry_
        .gauge("serve.cache_hits", "evaluator-cache hits to date")
        .set(static_cast<double>(cache_.hits()));
    registry_
        .gauge("serve.cache_misses",
               "evaluator-cache compilations to date")
        .set(static_cast<double>(cache_.misses()));
    registry_
        .gauge("serve.cache_evictions",
               "evaluator-cache LRU evictions to date")
        .set(static_cast<double>(cache_.evictions()));
    registry_
        .gauge("serve.cache_size", "evaluator-cache resident entries")
        .set(static_cast<double>(cache_.size()));
    const double lookups =
        static_cast<double>(cache_.hits() + cache_.misses());
    registry_
        .gauge("serve.cache_hit_rate",
               "evaluator-cache hits / lookups (0 before the first "
               "lookup)")
        .set(lookups > 0.0
                 ? static_cast<double>(cache_.hits()) / lookups
                 : 0.0);
    telemetry::RunReport report("gables serve", "service");
    report.addConfig("jobs", static_cast<long>(options_.jobs));
    report.addConfig("cache_capacity",
                     static_cast<long>(options_.cacheCapacity));
    report.setRegistry(&registry_);
    std::ostringstream out;
    report.write(out);
    return out.str();
}

} // namespace serve
} // namespace gables
