/**
 * @file
 * serve_mix: one op is one request line through
 * ServeService::handleLine, in process, in a closed loop with one
 * caller and jobs=1. The socket transport is left out: on a few
 * shared vCPUs it measures the scheduler, not the service.
 *
 * The stream is mostly `eval`, plus `sweep`s of hundreds to
 * thousands of points, small `explore` and `advise` requests and a
 * few malformed lines. The (soc, usecase) pairs come from a set four
 * times the default 64-entry evaluator cache, drawn with a Zipf skew
 * so the cache both hits and misses.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "analysis/advisor.h"
#include "analysis/explorer.h"
#include "core/gables.h"
#include "harness.h"
#include "serve/service.h"
#include "tracer.h"
#include "util/json_reader.h"
#include "util/json_writer.h"

namespace perfbench {
namespace {

using namespace gables;

constexpr size_t kPairs = 256;
constexpr size_t kIps = 3;
constexpr size_t kSweeps = 16;
constexpr size_t kExplores = 4;
constexpr size_t kAdvises = 4;
constexpr double kRelTol = 1e-12;

/** Requests of each kind per round; the mix is fixed, the order and
 * the inputs come from the seed. The counts, the Zipf(1) skew and
 * the 256-pair set are assumptions (mostly eval, a working set 4x
 * the cache), not measured traffic: the project has no recorded
 * serve traffic. See NOTES.md. */
enum Kind { kEval, kSweep, kExplore, kAdvise, kBad, kNumKinds };
constexpr size_t kCounts[kNumKinds] = {1740, 160, 32, 52, 64};
const char *const kSpanNames[kNumKinds] = {
    "serve.eval", "serve.sweep", "serve.explore", "serve.advise",
    "serve.bad_request"};
constexpr size_t kSweepSizes[] = {256, 512, 1024, 2048, 4096};

struct Pair {
    SocSpec soc;
    Usecase usecase;
};

/** One distinct request and the answer it must get. */
struct Request {
    Kind kind = kEval;
    std::string line;
    /** eval: one value; sweep: one per point; explore: min_perf then
     * cost per frontier member; advise: gain then attainable per
     * suggestion. */
    std::vector<double> expect;
};

void
writePair(JsonWriter &json, const Pair &p)
{
    json.key("soc");
    json.beginObject();
    json.kv("name", p.soc.name());
    json.kv("ppeak_ops_per_sec", p.soc.ppeak());
    json.kv("bpeak_bytes_per_sec", p.soc.bpeak());
    json.key("ips");
    json.beginArray();
    for (const IpSpec &ip : p.soc.ips()) {
        json.beginObject();
        json.kv("name", ip.name);
        json.kv("acceleration", ip.acceleration);
        json.kv("bandwidth_bytes_per_sec", ip.bandwidth);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.key("usecase");
    json.beginObject();
    json.kv("name", p.usecase.name());
    json.key("work");
    json.beginArray();
    for (const IpWork &w : p.usecase.work()) {
        json.beginObject();
        json.kv("fraction", w.fraction);
        json.kv("intensity_ops_per_byte", w.intensity);
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

bool
close(double got, double want)
{
    return std::abs(got - want) <= kRelTol * std::abs(want);
}

class ServeMix : public Workload
{
  public:
    void setup(uint64_t seed) override
    {
        Rng rng(seed);
        pairs_.clear();
        for (size_t i = 0; i < kPairs; ++i) {
            SocSpec soc = drawSoc(rng, kIps, "soc" + std::to_string(i));
            Usecase uc = drawUsecase(rng, kIps, "uc" + std::to_string(i));
            pairs_.push_back(Pair{std::move(soc), std::move(uc)});
        }
        // Zipf(1) popularity over the pairs.
        std::vector<double> cdf(kPairs);
        double acc = 0.0;
        for (size_t r = 0; r < kPairs; ++r)
            cdf[r] = (acc += 1.0 / static_cast<double>(r + 1));
        auto pick = [&] {
            double u = rng.uniform() * acc;
            return static_cast<size_t>(
                std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        };

        // Distinct requests: one eval per pair, then pools of sweeps,
        // explores, advises and malformed lines.
        requests_.clear();
        for (size_t i = 0; i < kPairs; ++i)
            requests_.push_back(evalRequest(pairs_[i]));
        size_t first_sweep = requests_.size();
        for (size_t i = 0; i < kSweeps; ++i)
            requests_.push_back(sweepRequest(pairs_[pick()], i, rng));
        size_t first_explore = requests_.size();
        for (size_t i = 0; i < kExplores; ++i)
            requests_.push_back(exploreRequest(pairs_[pick()]));
        size_t first_advise = requests_.size();
        for (size_t i = 0; i < kAdvises; ++i)
            requests_.push_back(adviseRequest(pairs_[pick()]));
        size_t first_bad = requests_.size();
        for (std::string &line : malformedLines())
            requests_.push_back(Request{kBad, std::move(line), {}});
        size_t n_bad = requests_.size() - first_bad;

        // The round: fixed counts per kind, seed-drawn pairs and order.
        round_.clear();
        for (size_t k = 0; k < kNumKinds; ++k) {
            for (size_t j = 0; j < kCounts[k]; ++j) {
                switch (k) {
                case kEval: round_.push_back(pick()); break;
                case kSweep: round_.push_back(first_sweep + j % kSweeps); break;
                case kExplore:
                    round_.push_back(first_explore + j % kExplores);
                    break;
                case kAdvise: round_.push_back(first_advise + j % kAdvises); break;
                default: round_.push_back(first_bad + j % n_bad); break;
                }
            }
        }
        rng.shuffle(round_);

        serve::ServeOptions opts;
        opts.jobs = 1;
        service_ = std::make_unique<serve::ServeService>(opts);
        responses_.assign(round_.size(), std::string());
        for (size_t i = 0; i < round_.size(); ++i) // warm-up pass
            runOp(i, nullptr);
    }

    size_t roundSize() const override { return round_.size(); }

    void runOp(size_t i, Tracer *tracer) override
    {
        const Request &req = requests_[round_[i]];
        Scope span(tracer, kSpanNames[req.kind]);
        responses_[i] = service_->handleLine(req.line);
    }

    size_t checkRound() override
    {
        size_t failed = 0;
        for (size_t i = 0; i < round_.size(); ++i)
            failed += answered(requests_[round_[i]], responses_[i]) ? 0 : 1;
        return failed;
    }

    uint64_t inputDigest() const override
    {
        Digest d;
        for (size_t r : round_)
            d.str(requests_[r].line);
        return d.value();
    }

    uint64_t outputDigest() const override
    {
        Digest d;
        for (const Request &r : requests_)
            for (double v : r.expect)
                d.num(v);
        return d.value();
    }

    void corruptReference() override
    {
        for (size_t r : round_) {
            if (requests_[r].kind == kEval) {
                requests_[r].expect[0] = -requests_[r].expect[0];
                return;
            }
        }
    }

    void layerMetrics(const Tracer &tracer, Metrics &m) override
    {
        for (size_t k = 0; k < kNumKinds; ++k)
            m[std::string(kSpanNames[k]) + "_ms"] =
                tracer.p50Ms(kSpanNames[k]);
        JsonValue stats =
            parseJson(service_->handleLine("{\"op\": \"stats\"}"));
        const JsonValue &reg = stats.at("result").at("stats");
        auto value = [&](const char *name) {
            return reg.at(name).at("value").asNumber();
        };
        m["serve.cache_hit_rate"] = value("serve.cache_hit_rate");
        m["serve.model_evals"] =
            value("serve.model_evals") / value("serve.requests");
        double in = 0.0, out = 0.0;
        for (size_t i = 0; i < round_.size(); ++i) {
            in += static_cast<double>(requests_[round_[i]].line.size());
            out += static_cast<double>(responses_[i].size());
        }
        m["serve.request_kb"] = in / static_cast<double>(round_.size()) / 1e3;
        m["serve.response_kb"] = out / static_cast<double>(round_.size()) / 1e3;
    }

  private:
    static std::string render(const char *op, const Pair &p,
                              const std::function<void(JsonWriter &)> &extra)
    {
        std::ostringstream out;
        JsonWriter json(out, false);
        json.beginObject();
        json.kv("op", op);
        writePair(json, p);
        if (extra)
            extra(json);
        json.endObject();
        return out.str();
    }

    static Request evalRequest(const Pair &p)
    {
        return Request{kEval, render("eval", p, nullptr),
                       {GablesModel::evaluate(p.soc, p.usecase).attainable}};
    }

    static Request sweepRequest(const Pair &p, size_t i, Rng &rng)
    {
        const size_t n = kSweepSizes[i % std::size(kSweepSizes)];
        // Sizes and axes cycle, so every seed sweeps the same points;
        // packed Bpeak sweeps cost less per point than intensity ones.
        // Fraction sweeps are left out: moving one IP's fraction alone
        // would leave the usecase's fractions not summing to 1.
        const std::string axis = i % 2 == 0 ? "intensity" : "bpeak";
        const size_t ip = 1 + rng.below(kIps - 1);
        std::vector<double> values =
            axis == "intensity"
                ? geomspace(0.05, 200.0, n)
                : geomspace(0.25 * p.soc.bpeak(), 4.0 * p.soc.bpeak(), n);
        Request req{kSweep, render("sweep", p, [&](JsonWriter &json) {
                        json.kv("axis", axis);
                        json.kv("ip", ip);
                        json.numberArray("values", values);
                    }),
                    {}};
        for (double v : values) {
            SocSpec soc = axis == "bpeak" ? p.soc.withBpeak(v) : p.soc;
            IpWork w = p.usecase.at(ip);
            w.intensity = v;
            Usecase u = axis == "bpeak" ? p.usecase
                                        : p.usecase.withWork(ip, w);
            req.expect.push_back(GablesModel::evaluate(soc, u).attainable);
        }
        return req;
    }

    static Request exploreRequest(const Pair &p)
    {
        std::vector<double> bpeaks =
            geomspace(0.25 * p.soc.bpeak(), 4.0 * p.soc.bpeak(), 8);
        std::vector<double> accels = geomspace(
            0.25 * p.soc.ip(1).acceleration, 8.0 * p.soc.ip(1).acceleration, 8);
        std::vector<double> bws = geomspace(
            0.5 * p.soc.ip(1).bandwidth, 2.0 * p.soc.ip(1).bandwidth, 4);
        CostModel cost;
        cost.costPerAcceleration = 1.0;
        cost.costPerBpeak = 1e-9;
        Request req{kExplore, render("explore", p, [&](JsonWriter &json) {
                        json.key("sweep");
                        json.beginArray();
                        json.beginObject();
                        json.kv("knob", "bpeak");
                        json.numberArray("values", bpeaks);
                        json.endObject();
                        json.beginObject();
                        json.kv("knob", "acceleration");
                        json.kv("ip", size_t{1});
                        json.numberArray("values", accels);
                        json.endObject();
                        json.beginObject();
                        json.kv("knob", "ip_bandwidth");
                        json.kv("ip", size_t{1});
                        json.numberArray("values", bws);
                        json.endObject();
                        json.endArray();
                        json.key("cost");
                        json.beginObject();
                        json.kv("per_acceleration", cost.costPerAcceleration);
                        json.kv("per_bpeak", cost.costPerBpeak);
                        json.endObject();
                    }),
                    {}};
        DesignExplorer ex(p.soc, {p.usecase}, cost);
        ex.sweepBpeak(bpeaks);
        ex.sweepAcceleration(1, accels);
        ex.sweepIpBandwidth(1, bws);
        ExploreOptions opts;
        opts.jobs = 1;
        for (const Candidate &c : ex.exploreFrontier(opts)) {
            req.expect.push_back(c.minPerf);
            req.expect.push_back(c.cost);
        }
        return req;
    }

    static Request adviseRequest(const Pair &p)
    {
        Request req{kAdvise, render("advise", p, nullptr), {}};
        for (const Advice &a : Advisor::advise(p.soc, p.usecase)) {
            req.expect.push_back(a.gain);
            req.expect.push_back(a.newAttainable);
        }
        return req;
    }

    static std::vector<std::string> malformedLines()
    {
        return {
            "{\"op\": \"eval\", \"soc\": ",
            "[1, 2, 3]",
            "{\"soc\": {}}",
            "{\"op\": \"evaluate\"}",
            "{\"op\": \"eval\"}",
            "{\"op\": 7}",
            "{\"op\": \"eval\", \"soc\": \"sd835\", \"usecase\": {}}",
            "{\"op\": \"sweep\", \"config\": 3}",
        };
    }

    /** Did @p response give the answer @p req must get? */
    static bool answered(const Request &req, const std::string &response)
    {
        JsonValue v;
        try {
            v = parseJson(response);
        } catch (const std::exception &) {
            return false;
        }
        if (!v.isObject() || !v.has("ok") || !v.at("ok").isBool())
            return false;
        if (req.kind == kBad) {
            if (v.at("ok").asBool() || !v.has("error"))
                return false;
            const JsonValue &e = v.at("error");
            return e.has("kind") && e.at("kind").isString() &&
                   e.at("kind").asString() == "bad-request" &&
                   e.has("code") && e.at("code").isNumber() &&
                   e.at("code").asNumber() == 2.0;
        }
        if (!v.at("ok").asBool() || !v.has("result"))
            return false;
        const JsonValue &r = v.at("result");
        std::vector<double> got;
        try {
            switch (req.kind) {
            case kEval:
                got.push_back(r.at("attainable_ops_per_sec").asNumber());
                break;
            case kSweep:
                for (const JsonValue &x : r.at("attainable_ops_per_sec").items())
                    got.push_back(x.asNumber());
                break;
            case kExplore:
                for (const JsonValue &c : r.at("frontier").items()) {
                    got.push_back(c.at("min_perf_ops_per_sec").asNumber());
                    got.push_back(c.at("cost").asNumber());
                }
                break;
            default:
                for (const JsonValue &a : r.at("advice").items()) {
                    got.push_back(a.at("gain").asNumber());
                    got.push_back(a.at("attainable_ops_per_sec").asNumber());
                }
                break;
            }
        } catch (const std::exception &) {
            return false;
        }
        if (got.size() != req.expect.size())
            return false;
        for (size_t i = 0; i < got.size(); ++i)
            if (!close(got[i], req.expect[i]))
                return false;
        return true;
    }

    std::vector<Pair> pairs_;
    std::vector<Request> requests_;
    std::vector<size_t> round_;
    std::vector<std::string> responses_;
    std::unique_ptr<serve::ServeService> service_;
};

} // namespace

std::unique_ptr<Workload>
makeServeMix()
{
    return std::make_unique<ServeMix>();
}

} // namespace perfbench
