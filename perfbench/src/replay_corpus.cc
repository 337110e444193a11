/**
 * @file
 * replay_corpus: one op is one replay::replayBundle of a committed
 * corpus bundle through cli::runCommand, the path `gables replay`
 * takes. The 13 bundles cover 10 subcommands: cli dispatch, config
 * parsing, RunReport writing, report_diff, and the untraced
 * instrumented sim and ERT paths. A round is one pass over the
 * corpus; the seed shuffles the order of every pass.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "cli/driver.h"
#include "harness.h"
#include "replay/replayer.h"
#include "tracer.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using namespace gables;

/** The subcommands the corpus covers, one span name each. */
const char *const kSubcommands[] = {
    "sim", "ert", "explore", "sweep", "eval", "advise",
    "robust", "sensitivity", "provision", "validate"};

/** Swaps std::cout and std::cerr onto a sink for one scope: the
 * commands' tables and lint notes are rendered, then dropped instead
 * of written to the pipe. */
class MuteStdStreams
{
  public:
    explicit MuteStdStreams(std::streambuf *sink)
        : out_(std::cout.rdbuf(sink)), err_(std::cerr.rdbuf(sink))
    {}
    ~MuteStdStreams()
    {
        std::cout.rdbuf(out_);
        std::cerr.rdbuf(err_);
    }
    MuteStdStreams(const MuteStdStreams &) = delete;
    MuteStdStreams &operator=(const MuteStdStreams &) = delete;

  private:
    std::streambuf *out_;
    std::streambuf *err_;
};

class ReplayCorpus : public Workload
{
  public:
    ReplayCorpus(std::string corpus_dir, std::string scratch_dir)
        : corpusDir_(std::move(corpus_dir)),
          scratchDir_(std::move(scratch_dir))
    {}

    void setup(uint64_t seed) override
    {
        std::filesystem::create_directories(scratchDir_);
        bundles_ = replay::listBundles(corpusDir_);
        if (bundles_.empty())
            fatal("no replay bundles under '" + corpusDir_ + "'");
        Digest in;
        for (const std::string &path : bundles_) {
            std::ifstream f(path);
            std::ostringstream text;
            text << f.rdbuf();
            // The file name, not the path, so a checkout's location
            // does not change the digest.
            in.str(std::filesystem::path(path).filename().string());
            in.str(text.str());
        }
        bundleDigest_ = in.value();
        rng_ = std::make_unique<Rng>(seed);
        order_.resize(bundles_.size());
        for (size_t i = 0; i < order_.size(); ++i)
            order_[i] = i;
        rng_->shuffle(order_);
        firstOrder_ = order_;

        // The warm-up pass also learns each bundle's subcommand,
        // which names its span. A bundle that does not replay clean
        // is not fatal here: the timed rounds count it as failed.
        spanNames_.assign(bundles_.size(), std::string());
        outcomes_.assign(bundles_.size(), replay::ReplayOutcome{});
        for (size_t i = 0; i < order_.size(); ++i)
            runOp(i, nullptr);
        for (size_t i = 0; i < order_.size(); ++i) {
            const std::string &sub = outcomes_[i].subcommand;
            spanNames_[order_[i]] =
                "replay." + (sub == "-" ? std::string("unreadable") : sub);
        }
        fieldsCompared_ = 0;
        for (const replay::ReplayOutcome &o : outcomes_)
            fieldsCompared_ += o.fieldsCompared;
        // The first timed pass runs in a new order, as every pass does.
        rng_->shuffle(order_);
    }

    size_t roundSize() const override { return order_.size(); }

    void runOp(size_t i, Tracer *tracer) override
    {
        const size_t b = order_[i];
        Scope span(tracer, spanNames_[b].empty() ? "replay.unknown"
                                                 : spanNames_[b].c_str());
        replay::ReplayOptions opts;
        opts.artifactDir = scratchDir_;
        outcomes_[i] = replay::replayBundle(
            bundles_[b],
            [&](const std::vector<std::string> &argv) {
                Scope run(tracer, "cli.run");
                MuteStdStreams mute(&outputSink_);
                return cli::runCommand(argv);
            },
            opts);
    }

    size_t checkRound() override
    {
        size_t failed = 0;
        for (const replay::ReplayOutcome &o : outcomes_) {
            bool ok = o.matched() && o.diffCount == 0 &&
                      o.fieldsCompared >= minFields_;
            failed += ok ? 0 : 1;
        }
        // The next pass runs in a fresh seed-drawn order.
        rng_->shuffle(order_);
        return failed;
    }

    uint64_t inputDigest() const override
    {
        Digest d;
        d.u64(bundleDigest_);
        for (size_t b : firstOrder_)
            d.u64(b);
        return d.value();
    }

    uint64_t outputDigest() const override
    {
        Digest d;
        for (const std::string &s : spanNames_)
            d.str(s);
        d.u64(fieldsCompared_);
        return d.value();
    }

    /** A replay can only be checked against its recorded report, so
     * the corruptible reference is the floor on compared fields. */
    void corruptReference() override { minFields_ = SIZE_MAX; }

    void layerMetrics(const Tracer &tracer, Metrics &m) override
    {
        for (const char *sub : kSubcommands)
            m[std::string("replay.") + sub + "_ms"] =
                tracer.p50Ms(std::string("replay.") + sub);
        const Tracer::Layer &run = tracer.layer("cli.run");
        double replay_s = 0.0;
        size_t bundles = 0;
        for (const char *sub : kSubcommands) {
            const Tracer::Layer &l =
                tracer.layer(std::string("replay.") + sub);
            replay_s += l.totalSeconds;
            bundles += l.count;
        }
        m["cli.run_ms"] = run.count ? run.totalSeconds / run.count * 1e3 : 0.0;
        m["replay.overhead_ms"] =
            bundles ? (replay_s - run.totalSeconds) / bundles * 1e3 : 0.0;
        m["replay.fields_compared"] = static_cast<double>(fieldsCompared_);
        double diffs = 0.0;
        for (const replay::ReplayOutcome &o : outcomes_)
            diffs += static_cast<double>(o.diffCount);
        m["replay.diffs"] = diffs;
    }

  private:
    std::string corpusDir_;
    std::string scratchDir_;
    std::vector<std::string> bundles_;
    std::vector<std::string> spanNames_;
    std::vector<size_t> order_;
    std::vector<size_t> firstOrder_;
    std::vector<replay::ReplayOutcome> outcomes_;
    std::unique_ptr<Rng> rng_;
    uint64_t bundleDigest_ = 0;
    size_t fieldsCompared_ = 0;
    size_t minFields_ = 0;
    CountingSink outputSink_;
};

} // namespace

std::unique_ptr<Workload>
makeReplayCorpus(const std::string &corpus_dir, const std::string &scratch_dir)
{
    return std::make_unique<ReplayCorpus>(corpus_dir, scratch_dir);
}

} // namespace perfbench
