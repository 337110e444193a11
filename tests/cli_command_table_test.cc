/**
 * @file
 * The `gables` command table is the only list of subcommands, driven
 * in-process through gables::cli::runCommand: every command usage()
 * lists dispatches and answers --help with exit 0, an unknown command
 * exits 2 with a suggestion drawn from the same table, and every
 * catalog usecase key reaches both `pipeline` and `explore`.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/driver.h"

namespace gables {
namespace {

/** The command names usage() lists, in order. */
std::vector<std::string>
listedCommands()
{
    std::ostringstream text;
    cli::usage(text);
    std::istringstream in(text.str());
    std::vector<std::string> names;
    bool inList = false;
    for (std::string line; std::getline(in, line);) {
        if (line == "commands:") {
            inList = true;
            continue;
        }
        if (line.rfind("  ", 0) != 0) {
            inList = false;
            continue;
        }
        // Continuation lines of a two-line entry are indented deeper.
        if (inList && line[2] != ' ')
            names.push_back(line.substr(2, line.find(' ', 2) - 2));
    }
    return names;
}

struct Outcome {
    int code;
    std::string out;
    std::string err;
};

Outcome
run(const std::vector<std::string> &argv)
{
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    int code = cli::runCommand(argv);
    std::string out = testing::internal::GetCapturedStdout();
    std::string err = testing::internal::GetCapturedStderr();
    return Outcome{code, out, err};
}

TEST(CliCommandTable, EveryListedCommandAnswersHelp)
{
    std::vector<std::string> names = listedCommands();
    ASSERT_EQ(names.size(), 17u);
    EXPECT_EQ(names.front(), "eval");
    EXPECT_EQ(names.back(), "glossary");
    for (const std::string &name : names) {
        SCOPED_TRACE(name);
        Outcome r = run({"gables", name, "--help"});
        EXPECT_EQ(r.code, cli::kExitOk);
        EXPECT_NE((r.out + r.err).find("usage: gables " + name + " "),
                  std::string::npos);
    }
}

TEST(CliCommandTable, UnknownCommandSuggestsFromTheTable)
{
    Outcome r = run({"gables", "sensitivty"});
    EXPECT_EQ(r.code, cli::kExitUsage);
    EXPECT_NE(r.err.find("gables: unknown command 'sensitivty' (did "
                         "you mean 'sensitivity'?)"),
              std::string::npos)
        << r.err;
    // The usage text on stderr is the listing the table renders.
    std::ostringstream usage;
    cli::usage(usage);
    EXPECT_NE(r.err.find(usage.str()), std::string::npos);

    r = run({"gables", "hepl"});
    EXPECT_EQ(r.code, cli::kExitUsage);
    EXPECT_NE(r.err.find("(did you mean 'help'?)"), std::string::npos)
        << r.err;

    r = run({"gables", "help"});
    EXPECT_EQ(r.code, cli::kExitOk);
    EXPECT_EQ(r.out, usage.str());
}

// pipeline and explore take the same nine catalog keys; the extended
// usecases (gaming, call, ar) were once explore-only.
TEST(CliCommandTable, PipelineAndExploreShareTheUsecaseKeys)
{
    Outcome r =
        run({"gables", "pipeline", "--usecase", "gaming", "--frames", "8"});
    EXPECT_EQ(r.code, cli::kExitOk) << r.err;
    EXPECT_NE(r.out.find("3D gaming: simulated"), std::string::npos)
        << r.out;

    r = run({"gables", "explore", "--usecase", "ar", "--points", "2"});
    EXPECT_EQ(r.code, cli::kExitOk) << r.err;
    EXPECT_NE(r.out.find("explored 2 designs for 'ar'"),
              std::string::npos)
        << r.out;

    for (const char *cmd : {"pipeline", "explore"}) {
        SCOPED_TRACE(cmd);
        r = run({"gables", cmd, "--usecase", "gamin"});
        EXPECT_EQ(r.code, cli::kExitError);
        EXPECT_NE(r.err.find("unknown usecase 'gamin' (did you mean "
                             "'gaming'?)"),
                  std::string::npos)
            << r.err;
    }
}

} // namespace
} // namespace gables
