/**
 * @file
 * The `gpushield` command line: one binary, one subcommand per tool.
 * Each subcommand takes the arguments after its name and returns the
 * process exit status: 0 ok, 1 failed run, 2 misuse.
 */

#ifndef GPUSHIELD_CLI_COMMANDS_H
#define GPUSHIELD_CLI_COMMANDS_H

#include <cstdint>

#include "cli/options.h"
#include "conform/fuzz.h"

namespace gpushield::cli {

int sweep(int argc, char **argv);
int throughput(int argc, char **argv);
int profile(int argc, char **argv);
int conformance(int argc, char **argv);
int service(int argc, char **argv);

/** Dispatches `gpushield <subcommand> ...`. Host misuse that throws
 *  std::invalid_argument exits 2; any other std::exception exits 1. */
int run(int argc, char **argv);

/** Everything `gpushield conformance` parses. */
struct ConformanceArgs
{
    bool corpus = false; //!< --suite corpus
    std::uint64_t seeds = 0;
    bool fuzz_one = false;
    conform::FuzzKnobs one;
    ShieldBackendKind backend = ShieldBackendKind::Region;
    bool check_opt = false;
    bool fp_table = false;
    bool no_minimize = false;
    bool quiet = false;
};

/** The conformance option table, writing into @p a. */
Options conformance_options(ConformanceArgs &a);

} // namespace gpushield::cli

#endif // GPUSHIELD_CLI_COMMANDS_H
