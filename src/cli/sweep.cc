/**
 * @file
 * gpushield sweep: the sweep harness over one suite.
 *
 *   gpushield sweep --suite fig14 --jobs 8 --jsonl fig14.jsonl
 *
 * Records are emitted in cell order, so the JSONL/CSV output of a
 * sweep is byte-identical for any --jobs value.
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "cli/commands.h"
#include "harness/executor.h"
#include "harness/suites.h"

namespace gpushield::cli {

using namespace harness;

int
sweep(int argc, char **argv)
{
    const SuiteDef *suite = nullptr;
    std::string jsonl_path, csv_path;
    unsigned jobs = hardware_jobs();
    ShieldBackendKind backend = ShieldBackendKind::Region;
    bool quiet = false, list = false, profile = false, conform = false;
    bool check_opt = false;

    const Options opts{"sweep", "--suite NAME [options]", {
        {"--suite", "NAME", "suite to run (see --list)", &suite},
        {"--jobs", "N", "worker threads (default: one per CPU)", &jobs},
        {"--backend", "NAME", "shield backend: region (default) or armor",
         &backend},
        {"--jsonl", "PATH", "write JSON Lines records ('-' = stdout)",
         &jsonl_path},
        {"--csv", "PATH", "write CSV records ('-' = stdout)", &csv_path},
        {"--check-opt", nullptr, "loop-aware check-opt on every shield cell",
         &check_opt},
        {"--profile", nullptr, "attach the stall profiler (adds \"obs\")",
         &profile},
        {"--conform", nullptr, "attach the lane oracle (adds \"conform\")",
         &conform},
        {"--list", nullptr, "list available suites", &list},
        {"--quiet", nullptr, "suppress per-cell progress", &quiet},
    }};
    if (!opts.parse(argc, argv))
        return 2;

    if (list) {
        for (const SuiteDef &s : suites())
            std::printf("%-8s %s\n", s.name.c_str(), s.description.c_str());
        return 0;
    }
    if (suite == nullptr)
        return opts.usage();
    std::unique_ptr<std::ostream> jsonl, csv;
    if ((!jsonl_path.empty() && !(jsonl = open_output(jsonl_path))) ||
        (!csv_path.empty() && !(csv = open_output(csv_path))))
        return 2;

    SweepSpec spec = suite->make();
    for (auto &[cfg_name, cfg] : spec.configs)
        cfg.shield.backend = backend;
    if (check_opt)
        for (CellSpec &c : spec.cells)
            c.check_opt = c.shield;
    SweepOptions sweep_opts;
    sweep_opts.jobs = jobs == 0 ? 1 : jobs;
    sweep_opts.progress = quiet ? nullptr : &std::cerr;
    sweep_opts.profile = profile;
    sweep_opts.conform = conform;

    const SweepResult result = run_sweep(spec, sweep_opts);

    if (jsonl)
        result.metrics.write_jsonl(*jsonl);
    if (csv)
        result.metrics.write_csv(*csv);

    result.summarize(std::cout);
    return result.all_ok() ? 0 : 1;
}

} // namespace gpushield::cli
