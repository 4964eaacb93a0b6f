/**
 * @file
 * The `gpushield` command line: the shared option parser rejects
 * malformed input with exit status 2, no subcommand can end the
 * process through an uncaught exception, output sinks are opened
 * before any work runs, and a conformance repro line parses back to
 * the run it came from.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.h"

namespace gpushield {
namespace {

struct CliResult
{
    int status = -1;
    std::string err;
};

CliResult
gpushield_cli(std::vector<std::string> args)
{
    args.insert(args.begin(), "gpushield");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    testing::internal::CaptureStderr();
    CliResult r;
    r.status = cli::run(static_cast<int>(argv.size()), argv.data());
    r.err = testing::internal::GetCapturedStderr();
    return r;
}

TEST(Cli, NoOrUnknownSubcommandListsSubcommands)
{
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{}, std::vector<std::string>{"sweeep"}}) {
        const CliResult r = gpushield_cli(args);
        EXPECT_EQ(r.status, 2);
        for (const char *sub :
             {"sweep", "throughput", "profile", "conformance", "service"})
            EXPECT_NE(r.err.find(sub), std::string::npos) << sub;
    }
}

TEST(Cli, UnknownFlagPrintsUsage)
{
    const CliResult r = gpushield_cli({"sweep", "--bogus"});
    EXPECT_EQ(r.status, 2);
    EXPECT_NE(r.err.find("unknown option --bogus"), std::string::npos);
    EXPECT_NE(r.err.find("usage: gpushield sweep"), std::string::npos);
    EXPECT_NE(r.err.find("--jsonl PATH"), std::string::npos);
}

TEST(Cli, MissingValue)
{
    const CliResult r = gpushield_cli({"conformance", "--seeds"});
    EXPECT_EQ(r.status, 2);
    EXPECT_NE(r.err.find("--seeds needs a value"), std::string::npos);
}

TEST(Cli, NumbersAreStrictDecimal)
{
    const std::vector<std::vector<std::string>> bad = {
        {"sweep", "--suite", "smoke", "--jobs", "abc"},
        {"sweep", "--suite", "smoke", "--jobs", "4x"},
        {"sweep", "--suite", "smoke", "--jobs", ""},
        {"service", "--demo", "--tenants", "abc"},
        {"service", "--demo", "--quantum", "-1"},
        {"service", "--demo", "--quantum", "+1"},
        {"conformance", "--seeds", "-1"},
        {"sweep", "--suite", "smoke", "--jobs", "4294967296"},
        {"conformance", "--fuzz-one", "18446744073709551616"},
        {"profile", "--benchmark", "hotspot", "--interval", " 8"},
    };
    for (const std::vector<std::string> &args : bad) {
        const CliResult r = gpushield_cli(args);
        EXPECT_EQ(r.status, 2) << args[1] << " " << args.back();
        EXPECT_NE(r.err.find("bad value"), std::string::npos) << r.err;
    }
}

TEST(Cli, NamedValuesAreChecked)
{
    const std::vector<std::vector<std::string>> bad = {
        {"sweep", "--suite", "no-such-suite"},
        {"throughput", "--suite", "no-such-suite"},
        {"sweep", "--suite", "smoke", "--backend", "rcache"},
        {"service", "--attacks", "--mode", "fifo"},
        {"conformance", "--suite", "fig14"},
    };
    for (const std::vector<std::string> &args : bad) {
        const CliResult r = gpushield_cli(args);
        EXPECT_EQ(r.status, 2) << args[0] << " " << args.back();
        EXPECT_NE(r.err.find("bad value '" + args.back() + "'"),
                  std::string::npos)
            << r.err;
    }
}

TEST(Cli, HostMisuseExitsTwoInsteadOfAborting)
{
    const CliResult r = gpushield_cli({"service", "--demo", "--tenants", "0"});
    EXPECT_EQ(r.status, 2);
    EXPECT_NE(r.err.find("max_tenants"), std::string::npos) << r.err;
}

TEST(Cli, BadOutputPathFailsBeforeAnyWork)
{
    const std::string bad = "/nonexistent-gpushield-dir/out";
    const std::vector<std::vector<std::string>> runs = {
        {"sweep", "--suite", "smoke", "--jobs", "1", "--jsonl", bad},
        {"sweep", "--suite", "smoke", "--jobs", "1", "--csv", bad},
        {"service", "--fairness", "--quick", "--json", bad},
        {"profile", "--benchmark", "vectoradd", "--out", bad},
    };
    for (const std::vector<std::string> &args : runs) {
        const CliResult r = gpushield_cli(args);
        EXPECT_EQ(r.status, 2) << args[0];
        EXPECT_NE(r.err.find("cannot open " + bad), std::string::npos)
            << r.err;
        EXPECT_EQ(r.err.find("[1/"), std::string::npos) << r.err;
        EXPECT_EQ(r.err.find("launch"), std::string::npos) << r.err;
    }
}

TEST(Cli, ConformanceReproParsesBackToTheFailingRun)
{
    for (const bool armor_opt : {true, false}) {
        conform::FuzzKnobs knobs;
        knobs.seed = 17;
        knobs.plant = armor_opt;
        knobs.ntid = 64;
        knobs.nctaid = 2;
        knobs = conform::resolve_knobs(knobs);
        const ShieldBackendKind backend = armor_opt
                                              ? ShieldBackendKind::Armor
                                              : ShieldBackendKind::Region;
        const std::string line = knobs.repro(backend, armor_opt);

        std::istringstream words(line);
        std::vector<std::string> args;
        for (std::string w; words >> w;)
            args.push_back(w);
        ASSERT_GE(args.size(), 2u) << line;
        EXPECT_EQ(args[0], "gpushield");
        EXPECT_EQ(args[1], "conformance");
        std::vector<char *> argv;
        for (std::size_t i = 2; i < args.size(); ++i)
            argv.push_back(args[i].data());

        cli::ConformanceArgs parsed;
        ASSERT_TRUE(cli::conformance_options(parsed).parse(
            static_cast<int>(argv.size()), argv.data()))
            << line;
        EXPECT_TRUE(parsed.fuzz_one);
        EXPECT_EQ(parsed.one.seed, knobs.seed);
        EXPECT_EQ(parsed.one.plant, knobs.plant);
        EXPECT_EQ(parsed.one.steps, knobs.steps);
        EXPECT_EQ(parsed.one.nbufs, knobs.nbufs);
        EXPECT_EQ(parsed.one.ntid, knobs.ntid);
        EXPECT_EQ(parsed.one.nctaid, knobs.nctaid);
        EXPECT_EQ(parsed.backend, backend);
        EXPECT_EQ(parsed.check_opt, armor_opt);
    }
}

} // namespace
} // namespace gpushield
