#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>

#include "cli/commands.h"

namespace gpushield::cli {

namespace {

struct Subcommand
{
    const char *name;
    const char *summary;
    int (*run)(int argc, char **argv);
};

constexpr Subcommand kSubcommands[] = {
    {"sweep", "run a sweep suite (Figs. 14/15/18) to JSONL/CSV", sweep},
    {"throughput", "time the simulator on one suite, JSON record",
     throughput},
    {"profile", "stall-attribution profile and Chrome trace", profile},
    {"conformance", "check the shield against the per-lane oracle",
     conformance},
    {"service", "multi-tenant service: attacks, fairness, demo", service},
};

} // namespace

int
run(int argc, char **argv)
{
    const Subcommand *sub = nullptr;
    for (const Subcommand &s : kSubcommands)
        if (argc > 1 && std::strcmp(argv[1], s.name) == 0)
            sub = &s;
    if (sub == nullptr) {
        if (argc > 1)
            std::fprintf(stderr, "gpushield: unknown subcommand %s\n",
                         argv[1]);
        std::fprintf(stderr, "usage: gpushield <subcommand> [options]\n");
        for (const Subcommand &s : kSubcommands)
            std::fprintf(stderr, "  %-12s %s\n", s.name, s.summary);
        return 2;
    }
    try {
        return sub->run(argc - 2, argv + 2);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "gpushield %s: %s\n", sub->name, e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gpushield %s: error: %s\n", sub->name,
                     e.what());
        return 1;
    }
}

} // namespace gpushield::cli
