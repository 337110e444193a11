#include "core/serialize.h"

#include <limits>
#include <utility>
#include <vector>

#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/parse.h"

namespace gables {

namespace {

/** A shape error in a JSON input. Not logged: a daemon answering a
 * malformed request is not a fault worth a stderr line. */
[[noreturn]] void
shapeError(const std::string &message)
{
    throw ConfigError(SourceLoc{}, message);
}

/** @return Object member @p key, shape-checked as a number. */
double
numberField(const JsonValue &obj, const std::string &key)
{
    if (!obj.has(key) || !obj.at(key).isNumber())
        shapeError("missing or non-numeric \"" + key + "\"");
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
        shapeError("\"" + key + "\" must be a string");
    return obj.at(key).asString();
}

void
writeSocBody(JsonWriter &json, const SocSpec &soc)
{
    json.kv("name", soc.name());
    json.kv("ppeak_ops_per_sec", soc.ppeak());
    json.kv("bpeak_bytes_per_sec", soc.bpeak());
    json.key("ips");
    json.beginArray();
    for (const IpSpec &ip : soc.ips()) {
        json.beginObject();
        json.kv("name", ip.name);
        json.kv("acceleration", ip.acceleration);
        json.kv("bandwidth_bytes_per_sec", ip.bandwidth);
        json.endObject();
    }
    json.endArray();
}

void
writeUsecaseBody(JsonWriter &json, const Usecase &usecase)
{
    json.kv("name", usecase.name());
    json.key("work");
    json.beginArray();
    for (const IpWork &w : usecase.work()) {
        json.beginObject();
        json.kv("fraction", w.fraction);
        json.kv("intensity_ops_per_byte", w.intensity);
        json.endObject();
    }
    json.endArray();
    json.kv("average_intensity", usecase.averageIntensity());
}

void
writeResultBody(JsonWriter &json, const SocSpec &soc,
                const GablesResult &result)
{
    json.kv("attainable_ops_per_sec", result.attainable);
    json.kv("memory_time", result.memoryTime);
    json.kv("memory_perf_bound", result.memoryPerfBound);
    json.kv("total_data_bytes_per_op", result.totalDataBytes);
    json.kv("bottleneck", toString(result.bottleneck));
    json.kv("bottleneck_ip", result.bottleneckIp);
    json.kv("bottleneck_label", result.bottleneckLabel(soc));
    json.key("ips");
    json.beginArray();
    for (const IpTiming &t : result.ips) {
        json.beginObject();
        json.kv("compute_time", t.computeTime);
        json.kv("data_bytes", t.dataBytes);
        json.kv("transfer_time", t.transferTime);
        json.kv("time", t.time);
        json.kv("perf_bound", t.perfBound);
        json.endObject();
    }
    json.endArray();
}

} // namespace

void
writeJson(std::ostream &out, const SocSpec &soc)
{
    JsonWriter json(out);
    json.beginObject();
    writeSocBody(json, soc);
    json.endObject();
}

void
writeJson(std::ostream &out, const Usecase &usecase)
{
    JsonWriter json(out);
    json.beginObject();
    writeUsecaseBody(json, usecase);
    json.endObject();
}

void
writeJson(std::ostream &out, const SocSpec &soc, const Usecase &usecase,
          const GablesResult &result)
{
    JsonWriter json(out);
    json.beginObject();
    json.key("soc");
    json.beginObject();
    writeSocBody(json, soc);
    json.endObject();
    json.key("usecase");
    json.beginObject();
    writeUsecaseBody(json, usecase);
    json.endObject();
    json.key("result");
    json.beginObject();
    writeResultBody(json, soc, result);
    json.endObject();
    json.endObject();
}

SocSpec
socFromJson(const JsonValue &v)
{
    if (!v.isObject())
        shapeError("\"soc\" must be an object");
    double ppeak = numberField(v, "ppeak_ops_per_sec");
    double bpeak = numberField(v, "bpeak_bytes_per_sec");
    if (!v.has("ips") || !v.at("ips").isArray() ||
        v.at("ips").size() == 0)
        shapeError("\"soc\" needs a non-empty \"ips\" array");
    std::vector<IpSpec> ips;
    for (const JsonValue &ip : v.at("ips").items()) {
        if (!ip.isObject())
            shapeError("each \"ips\" entry must be an object");
        IpSpec spec;
        spec.name = stringField(
            ip, "name", "IP" + std::to_string(ips.size()));
        spec.acceleration = numberField(ip, "acceleration");
        spec.bandwidth = numberField(ip, "bandwidth_bytes_per_sec");
        ips.push_back(std::move(spec));
    }
    return SocSpec(stringField(v, "name", "request"), ppeak, bpeak,
                   std::move(ips));
}

Usecase
usecaseFromJson(const JsonValue &v)
{
    if (!v.isObject())
        shapeError("\"usecase\" must be an object");
    if (!v.has("work") || !v.at("work").isArray() ||
        v.at("work").size() == 0)
        shapeError("\"usecase\" needs a non-empty \"work\" array");
    std::vector<IpWork> work;
    for (const JsonValue &w : v.at("work").items()) {
        if (!w.isObject())
            shapeError("each \"work\" entry must be an object");
        IpWork item;
        item.fraction = numberField(w, "fraction");
        if (w.has("intensity_ops_per_byte") &&
            w.at("intensity_ops_per_byte").isNull()) {
            item.intensity = std::numeric_limits<double>::infinity();
        } else {
            item.intensity =
                numberField(w, "intensity_ops_per_byte");
        }
        work.push_back(item);
    }
    return Usecase(stringField(v, "name", "request"),
                   std::move(work));
}

} // namespace gables
