/**
 * @file
 * Tests for JSON serialization of model inputs and results, and for
 * the readers that take the inputs back.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>

#include "core/serialize.h"
#include "soc/catalog.h"
#include "util/json_reader.h"
#include "util/parse.h"
#include "util/rng.h"

namespace gables {
namespace {

TEST(Serialize, SocSpecFields)
{
    std::ostringstream oss;
    writeJson(oss, SocCatalog::paperTwoIp());
    std::string json = oss.str();
    EXPECT_NE(json.find("\"name\": \"paper two-IP\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ppeak_ops_per_sec\": 40000000000"),
              std::string::npos);
    EXPECT_NE(json.find("\"acceleration\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"ips\""), std::string::npos);
}

TEST(Serialize, UsecaseFields)
{
    std::ostringstream oss;
    writeJson(oss, Usecase::twoIp("6b", 0.75, 8.0, 0.1));
    std::string json = oss.str();
    EXPECT_NE(json.find("\"name\": \"6b\""), std::string::npos);
    EXPECT_NE(json.find("\"fraction\": 0.25"), std::string::npos);
    EXPECT_NE(json.find("\"intensity_ops_per_byte\": 0.1"),
              std::string::npos);
    EXPECT_NE(json.find("\"average_intensity\": 0.1327"),
              std::string::npos);
}

TEST(Serialize, FullEvaluation)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("6b", 0.75, 8.0, 0.1);
    GablesResult r = GablesModel::evaluate(soc, u);
    std::ostringstream oss;
    writeJson(oss, soc, u, r);
    std::string json = oss.str();
    EXPECT_NE(json.find("\"soc\""), std::string::npos);
    EXPECT_NE(json.find("\"usecase\""), std::string::npos);
    EXPECT_NE(json.find("\"result\""), std::string::npos);
    EXPECT_NE(json.find("\"bottleneck\": \"memory interface\""),
              std::string::npos);
    EXPECT_NE(json.find("\"bottleneck_ip\": -1"), std::string::npos);
    // The attainable bound (1.3278e9) appears in full precision.
    EXPECT_NE(json.find("\"attainable_ops_per_sec\": 1327"),
              std::string::npos);
}

TEST(Serialize, BalancedJsonIsWellFormedEnoughToCount)
{
    // Cheap structural check: brace/bracket balance.
    SocSpec soc = SocCatalog::snapdragon835();
    Usecase u("u", {IpWork{0.3, 4.0}, IpWork{0.6, 2.0},
                    IpWork{0.1, 1.0}});
    std::ostringstream oss;
    writeJson(oss, soc, u, GablesModel::evaluate(soc, u));
    std::string json = oss.str();
    int braces = 0, brackets = 0;
    for (char c : json) {
        braces += (c == '{') - (c == '}');
        brackets += (c == '[') - (c == ']');
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

/** @return True when @p a and @p b have the same bit pattern. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void
expectSameSoc(const SocSpec &want, const SocSpec &got)
{
    EXPECT_EQ(got.name(), want.name());
    EXPECT_TRUE(sameBits(got.ppeak(), want.ppeak()));
    EXPECT_TRUE(sameBits(got.bpeak(), want.bpeak()));
    ASSERT_EQ(got.numIps(), want.numIps());
    for (size_t i = 0; i < want.numIps(); ++i) {
        EXPECT_EQ(got.ip(i).name, want.ip(i).name);
        EXPECT_TRUE(sameBits(got.ip(i).acceleration,
                             want.ip(i).acceleration))
            << "IP " << i;
        EXPECT_TRUE(
            sameBits(got.ip(i).bandwidth, want.ip(i).bandwidth))
            << "IP " << i;
    }
}

void
expectSameUsecase(const Usecase &want, const Usecase &got)
{
    EXPECT_EQ(got.name(), want.name());
    ASSERT_EQ(got.numIps(), want.numIps());
    for (size_t i = 0; i < want.numIps(); ++i) {
        EXPECT_TRUE(sameBits(got.fraction(i), want.fraction(i)))
            << "IP " << i;
        EXPECT_TRUE(sameBits(got.intensity(i), want.intensity(i)))
            << "IP " << i;
    }
}

// writeJson -> parseJson -> socFromJson/usecaseFromJson is the
// identity, bit for bit, over generated inputs: 1-16 IPs, idle
// (fi = 0) lanes, and Ii = inf (no off-IP traffic), which the writer
// renders as null. The full-evaluation document's "soc" and
// "usecase" members read back the same way.
TEST(SerializeRoundTrip, GeneratedInputsReadBackBitwise)
{
    const double inf = std::numeric_limits<double>::infinity();
    Rng rng(0x5E71A1);
    int idle_lanes = 0;
    int infinite_lanes = 0;
    for (int iter = 0; iter < 200; ++iter) {
        SCOPED_TRACE(iter);
        size_t n = 1 + static_cast<size_t>(rng.next() % 16);
        std::vector<IpSpec> ips;
        for (size_t i = 0; i < n; ++i)
            ips.push_back(IpSpec{
                "IP" + std::to_string(i),
                i == 0 ? 1.0 : rng.logUniform(0.01, 1000.0),
                rng.logUniform(1e8, 1e12)});
        SocSpec soc("gen" + std::to_string(iter),
                    rng.logUniform(1e8, 1e13),
                    rng.logUniform(1e8, 1e12), std::move(ips));

        std::vector<double> f(n);
        double sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            f[i] = i > 0 && rng.next() % 3 == 0 ? 0.0
                                                : rng.uniform(0.01, 1.0);
            sum += f[i];
        }
        std::vector<IpWork> work;
        for (size_t i = 0; i < n; ++i) {
            double intensity = rng.next() % 4 == 0
                                   ? inf
                                   : rng.logUniform(0.01, 1000.0);
            idle_lanes += f[i] == 0.0;
            infinite_lanes += intensity == inf;
            work.push_back(IpWork{f[i] / sum, intensity});
        }
        Usecase usecase("mix" + std::to_string(iter), std::move(work));

        std::ostringstream soc_json, usecase_json, full_json;
        writeJson(soc_json, soc);
        writeJson(usecase_json, usecase);
        writeJson(full_json, soc, usecase,
                  GablesModel::evaluate(soc, usecase));
        expectSameSoc(soc, socFromJson(parseJson(soc_json.str())));
        expectSameUsecase(usecase,
                          usecaseFromJson(parseJson(usecase_json.str())));
        JsonValue full = parseJson(full_json.str());
        expectSameSoc(soc, socFromJson(full.at("soc")));
        expectSameUsecase(usecase, usecaseFromJson(full.at("usecase")));
    }
    // The generator reached both edge cases.
    EXPECT_GT(idle_lanes, 0);
    EXPECT_GT(infinite_lanes, 0);
}

TEST(SerializeRead, OptionalNamesDefault)
{
    SocSpec soc = socFromJson(parseJson(
        R"({"ppeak_ops_per_sec": 1e10, "bpeak_bytes_per_sec": 5e9,
            "ips": [{"acceleration": 1, "bandwidth_bytes_per_sec": 4e9},
                    {"acceleration": 3, "bandwidth_bytes_per_sec": 8e9}]})"));
    EXPECT_EQ(soc.name(), "request");
    EXPECT_EQ(soc.ip(0).name, "IP0");
    EXPECT_EQ(soc.ip(1).name, "IP1");
    Usecase u = usecaseFromJson(parseJson(
        R"({"work": [{"fraction": 1, "intensity_ops_per_byte": 2}]})"));
    EXPECT_EQ(u.name(), "request");
}

// A value of the wrong shape is a ConfigError without a location, so
// what() is the bare message; a well-shaped value the model rejects
// is a plain FatalError, not a ConfigError.
TEST(SerializeRead, ShapeErrorsAreConfigErrors)
{
    struct Case {
        const char *json;
        bool soc;
        const char *message;
    };
    const Case cases[] = {
        {"[]", true, "\"soc\" must be an object"},
        {R"({"bpeak_bytes_per_sec": 1})", true,
         "missing or non-numeric \"ppeak_ops_per_sec\""},
        {R"({"ppeak_ops_per_sec": 1, "bpeak_bytes_per_sec": 1,
             "ips": []})",
         true, "\"soc\" needs a non-empty \"ips\" array"},
        {R"({"ppeak_ops_per_sec": 1, "bpeak_bytes_per_sec": 1,
             "ips": [3]})",
         true, "each \"ips\" entry must be an object"},
        {R"({"ppeak_ops_per_sec": 1, "bpeak_bytes_per_sec": 1,
             "ips": [{"name": 7}]})",
         true, "\"name\" must be a string"},
        {"7", false, "\"usecase\" must be an object"},
        {R"({"work": {}})", false,
         "\"usecase\" needs a non-empty \"work\" array"},
        {R"({"work": [null]})", false,
         "each \"work\" entry must be an object"},
        {R"({"work": [{"fraction": 1,
                       "intensity_ops_per_byte": "x"}]})",
         false, "missing or non-numeric \"intensity_ops_per_byte\""},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.json);
        JsonValue v = parseJson(c.json);
        try {
            if (c.soc)
                socFromJson(v);
            else
                usecaseFromJson(v);
            ADD_FAILURE() << "no error";
        } catch (const ConfigError &err) {
            EXPECT_EQ(err.message(), c.message);
            EXPECT_EQ(std::string(err.what()), c.message);
        }
    }

    JsonValue negative = parseJson(
        R"({"ppeak_ops_per_sec": -1, "bpeak_bytes_per_sec": 1,
            "ips": [{"acceleration": 1, "bandwidth_bytes_per_sec": 1}]})");
    try {
        socFromJson(negative);
        ADD_FAILURE() << "no error";
    } catch (const ConfigError &) {
        ADD_FAILURE() << "a value error reported as a shape error";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("Ppeak"),
                  std::string::npos);
    }
}

} // namespace
} // namespace gables
