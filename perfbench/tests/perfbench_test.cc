/**
 * @file
 * Tests of the benchmark harness itself: the tail rule, digest
 * stability per seed, seed sensitivity, the checks' ability to fail,
 * span self times, scaling to the reference speed, and agreement
 * with BENCHMARK.json.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "calibrate.h"
#include "harness.h"
#include "tracer.h"
#include "util/json_reader.h"
#include "util/logging.h"

namespace perfbench {
namespace {

const std::string kRoot = PERFBENCH_REPO_ROOT;

/** Drops the program's log lines (serve logs one per malformed
 * request) for the whole test binary. */
class QuietLog : public ::testing::Environment
{
  public:
    void SetUp() override { gables::setLogSink(&sink_); }
    void TearDown() override { gables::setLogSink(nullptr); }

  private:
    CountingSink buf_;
    std::ostream sink_{&buf_};
};

const auto *const kQuietLog =
    ::testing::AddGlobalTestEnvironment(new QuietLog);

std::unique_ptr<Workload>
make(const std::string &name)
{
    return makeWorkload(name, kRoot + "/tests/corpus",
                        ::testing::TempDir() + "perfbench-artifacts");
}

std::vector<double>
ramp(size_t n)
{
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(i + 1);
    return v;
}

TEST(TailPercentile, KeepsAtLeastTenSamplesBeyond)
{
    Tail t = tailPercentile(ramp(100));
    EXPECT_DOUBLE_EQ(t.percentile, 90.0);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_DOUBLE_EQ(t.value, 90.0);

    t = tailPercentile(ramp(99)); // p90 would leave 9 beyond
    EXPECT_DOUBLE_EQ(t.percentile, 50.0);
    EXPECT_EQ(t.beyond, 49u);

    t = tailPercentile(ramp(1000));
    EXPECT_DOUBLE_EQ(t.percentile, 99.0);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_DOUBLE_EQ(t.value, 990.0);

    t = tailPercentile(ramp(99999));
    EXPECT_DOUBLE_EQ(t.percentile, 99.9);
    EXPECT_EQ(t.beyond, 99u);

    for (size_t n : {1u, 2u, 7u, 150u, 12345u}) {
        std::vector<double> v = ramp(n);
        t = tailPercentile(v);
        // Exactly `beyond` samples lie strictly above the value.
        size_t above = 0;
        for (double x : v)
            above += x > t.value ? 1 : 0;
        EXPECT_EQ(above, t.beyond) << n;
        if (t.percentile > 50.0) {
            EXPECT_GE(t.beyond, 10u) << n;
        }
    }
}

TEST(Quantile, NearestRank)
{
    EXPECT_DOUBLE_EQ(quantile(ramp(10), 0.5), 5.0);
    EXPECT_DOUBLE_EQ(quantile(ramp(11), 0.5), 6.0);
    EXPECT_DOUBLE_EQ(quantile(ramp(1), 0.5), 1.0);
    EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(Tracer, SelfTimeExcludesChildren)
{
    Tracer tr;
    tr.setOp(7);
    tr.begin("outer");
    tr.begin("inner");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    tr.end();
    tr.end();
    tr.finish();
    const Tracer::Layer &outer = tr.layer("outer");
    const Tracer::Layer &inner = tr.layer("inner");
    ASSERT_EQ(outer.count, 1u);
    ASSERT_EQ(inner.count, 1u);
    EXPECT_GE(inner.totalSeconds, 0.019);
    EXPECT_GE(outer.totalSeconds, inner.totalSeconds);
    EXPECT_LT(outer.selfSeconds, 0.005);
    ASSERT_EQ(tr.spans().size(), 2u);
    EXPECT_EQ(tr.spans()[0].parent, Tracer::kNoParent);
    EXPECT_EQ(tr.spans()[1].parent, 0u);
    EXPECT_EQ(tr.spans()[1].op, 7u);
    EXPECT_EQ(tr.layer("never").count, 0u);
}

TEST(Tracer, CapKeepsTotals)
{
    Tracer tr(3);
    for (int i = 0; i < 5; ++i) {
        tr.begin("x");
        tr.end();
    }
    tr.finish();
    EXPECT_EQ(tr.spans().size(), 3u);
    EXPECT_EQ(tr.dropped(), 2u);
    EXPECT_EQ(tr.layer("x").count, 5u);
}

/** A workload of three trivial ops that counts its set-ups. */
class Counting : public Workload
{
  public:
    void setup(uint64_t seed) override
    {
        ++setups;
        lastSeed = seed;
    }
    size_t roundSize() const override { return 3; }
    void runOp(size_t, Tracer *tracer) override
    {
        Scope s(tracer, "counting.op");
    }
    size_t checkRound() override { return 0; }
    uint64_t inputDigest() const override { return 0; }
    uint64_t outputDigest() const override { return 0; }
    void layerMetrics(const Tracer &, Metrics &) override {}
    void corruptReference() override {}

    int setups = 0;
    uint64_t lastSeed = 0;
};

TEST(RunPhase, TracedAndUntracedRoundsAlternate)
{
    Counting w;
    Tracer tr;
    PhaseOptions opts;
    opts.tracer = &tr;
    Phase p = runPhase(w, opts);
    tr.finish();
    EXPECT_EQ(p.rounds, 4u);
    EXPECT_EQ(p.attempted, 12u);
    EXPECT_EQ(p.roundSeconds.size(), 2u);
    EXPECT_EQ(p.tracedRoundSeconds.size(), 2u);
    // Only the untraced rounds' ops are latency samples.
    EXPECT_EQ(p.opSeconds.size(), 6u);
    EXPECT_EQ(tr.layer("counting.op").count, 6u);
}

TEST(RunPhase, SetUpRunsAgainInsideThePhase)
{
    Counting w;
    PhaseOptions opts;
    opts.seconds = 0.05;
    opts.resetups = 4;
    opts.seed = 17;
    Phase p = runPhase(w, opts);
    EXPECT_EQ(w.setups, 4);
    EXPECT_EQ(w.lastSeed, 17u);
    EXPECT_EQ(p.setupSeconds.size(), 4u);
    EXPECT_TRUE(p.tracedRoundSeconds.empty());
    EXPECT_GE(p.rounds, 2u);
}

TEST(ReferenceSpeed, ScalesByTheKernelAroundTheWork)
{
    const double k = kReferenceKernelSeconds;
    EXPECT_DOUBLE_EQ(atReferenceSpeed(1.0, k, k), 1.0);
    // The kernel ran twice as slow: so did the host.
    EXPECT_DOUBLE_EQ(atReferenceSpeed(1.0, 2 * k, 2 * k), 0.5);
    // The mean of the runs before and after.
    EXPECT_DOUBLE_EQ(atReferenceSpeed(3.0, k, 3 * k), 1.5);
}

/** Ops that each outlast the kernel's interval, so the kernel also
 * runs inside the round. */
class Sleeping : public Counting
{
  public:
    void runOp(size_t, Tracer *) override
    {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            kKernelEverySeconds + 0.005));
    }
};

TEST(RunPhase, KernelRunsAroundEveryOpPastItsInterval)
{
    Sleeping w;
    Phase p = runPhase(w, PhaseOptions{});
    ASSERT_EQ(p.rounds, 2u);
    // One run before the phase, then one after each op: two inside
    // each round and one at its end.
    EXPECT_EQ(p.kernelSeconds.size(), 1u + 2u * 3u);
    ASSERT_EQ(p.rawRoundSeconds.size(), 2u);
    EXPECT_EQ(p.roundSeconds.size(), 2u);
    EXPECT_EQ(p.opSeconds.size(), 6u);
    // A round's time is that of its ops, not of the kernel runs in it.
    EXPECT_GE(p.rawRoundSeconds[0], 3 * kKernelEverySeconds);
    EXPECT_LT(p.rawRoundSeconds[0], 3 * kKernelEverySeconds + 0.05);
}

class EachWorkload : public ::testing::TestWithParam<std::string>
{};

TEST_P(EachWorkload, DigestsRepeatForOneSeed)
{
    auto a = make(GetParam());
    auto b = make(GetParam());
    a->setup(11);
    b->setup(11);
    EXPECT_EQ(a->inputDigest(), b->inputDigest());
    EXPECT_EQ(a->outputDigest(), b->outputDigest());
    EXPECT_EQ(a->roundSize(), b->roundSize());
    // Set-up again on the same object: same state.
    uint64_t in = a->inputDigest(), out = a->outputDigest();
    a->setup(11);
    EXPECT_EQ(a->inputDigest(), in);
    EXPECT_EQ(a->outputDigest(), out);
}

TEST_P(EachWorkload, SeedChangesInputsNotWork)
{
    auto a = make(GetParam());
    auto b = make(GetParam());
    a->setup(1);
    b->setup(2);
    EXPECT_NE(a->inputDigest(), b->inputDigest());
    EXPECT_EQ(a->roundSize(), b->roundSize());
}

TEST_P(EachWorkload, CleanRoundPassesChecks)
{
    auto w = make(GetParam());
    w->setup(5);
    for (size_t i = 0; i < w->roundSize(); ++i)
        w->runOp(i, nullptr);
    EXPECT_EQ(w->checkRound(), 0u);
}

TEST_P(EachWorkload, CorruptedReferenceFailsChecks)
{
    auto w = make(GetParam());
    w->setup(5);
    w->corruptReference();
    Phase p = runPhase(*w, PhaseOptions{});
    EXPECT_GT(p.failed, 0u);
    EXPECT_EQ(p.attempted, 2 * w->roundSize());
}

TEST_P(EachWorkload, TracedRoundYieldsLayerMetrics)
{
    auto w = make(GetParam());
    w->setup(3);
    Tracer tr;
    PhaseOptions opts;
    opts.tracer = &tr;
    runPhase(*w, opts);
    tr.finish();
    Metrics m;
    w->layerMetrics(tr, m);
    ASSERT_FALSE(m.empty());
    for (const auto &[name, value] : m) {
        bool listed = false;
        for (const MetricSpec &spec : perLayerMetrics())
            listed = listed || spec.name == name;
        EXPECT_TRUE(listed) << name;
        EXPECT_GE(value, 0.0) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(All, EachWorkload,
                         ::testing::ValuesIn(workloadNames()));

TEST(ServeMix, SeedChangesTheRequestStream)
{
    auto a = make("serve_mix");
    auto b = make("serve_mix");
    a->setup(100);
    b->setup(101);
    EXPECT_NE(a->inputDigest(), b->inputDigest());
    EXPECT_NE(a->outputDigest(), b->outputDigest());
}

TEST(ReplayCorpus, SeedChangesTheOrderOnly)
{
    auto a = make("replay_corpus");
    auto b = make("replay_corpus");
    a->setup(100);
    b->setup(101);
    EXPECT_NE(a->inputDigest(), b->inputDigest());
    // Same bundles, same subcommands, same compared fields.
    EXPECT_EQ(a->outputDigest(), b->outputDigest());
}

/** A bundle whose recorded report no longer matches its command
 * must not stop set-up: every timed pass counts it as one failed op,
 * while the other bundles still pass. */
TEST(ReplayCorpus, DivergingBundleFailsItsOpNotSetUp)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) / "perfbench-corpus";
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (const fs::directory_entry &e :
         fs::directory_iterator(kRoot + "/tests/corpus"))
        fs::copy_file(e.path(), dir / e.path().filename());
    const fs::path bundle = dir / "eval_paper_config.json";
    std::stringstream text;
    text << std::ifstream(bundle).rdbuf();
    std::string json = text.str();
    const std::string recorded = "\"value\": 1327800829.8755186";
    const size_t at = json.find(recorded);
    ASSERT_NE(at, std::string::npos);
    json.replace(at, recorded.size(), "\"value\": 1327800000");
    std::ofstream(bundle) << json;

    auto w = makeWorkload("replay_corpus", dir.string(),
                          ::testing::TempDir() + "perfbench-artifacts");
    ASSERT_NO_THROW(w->setup(5));
    Phase p = runPhase(*w, PhaseOptions{});
    EXPECT_EQ(p.attempted, 2 * w->roundSize());
    EXPECT_EQ(p.failed, 2u);
    fs::remove_all(dir);
}

/** Names, units and directions must match BENCHMARK.json. */
TEST(BenchmarkJson, MatchesTheHarness)
{
    std::ifstream in(kRoot + "/BENCHMARK.json");
    ASSERT_TRUE(in) << "no BENCHMARK.json at the repository root";
    std::stringstream text;
    text << in.rdbuf();
    gables::JsonValue doc = gables::parseJson(text.str());

    auto check = [&](const char *key, const std::vector<MetricSpec> &want) {
        const gables::JsonValue &list = doc.at(key);
        ASSERT_EQ(list.size(), want.size()) << key;
        for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(list.at(i).at("name").asString(), want[i].name);
            EXPECT_EQ(list.at(i).at("unit").asString(), want[i].unit)
                << want[i].name;
            EXPECT_EQ(list.at(i).at("better").asString(), want[i].better)
                << want[i].name;
        }
    };
    check("end_to_end", endToEndMetrics());
    check("per_layer", perLayerMetrics());
    const gables::JsonValue &workloads = doc.at("workloads");
    ASSERT_EQ(workloads.size(), workloadNames().size());
    for (size_t i = 0; i < workloads.size(); ++i)
        EXPECT_EQ(workloads.at(i).at("name").asString(), workloadNames()[i]);
}

} // namespace
} // namespace perfbench
