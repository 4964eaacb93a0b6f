/**
 * @file
 * gpushield profile: stall-attribution profiling (docs/PROFILING.md).
 *
 * Single-benchmark mode — profile one named benchmark and export a
 * Chrome trace (load it in https://ui.perfetto.dev):
 *
 *   gpushield profile --benchmark hotspot --out hotspot.json --summary
 *
 * Suite mode — profile every single-kernel cell of a sweep suite and
 * write one trace per cell (the CI profile-smoke stage):
 *
 *   gpushield profile --suite smoke --out-dir build/profile-smoke --check
 *
 * --check re-parses every emitted trace (obs/trace_json.h) and verifies
 * the attribution invariant: each warp's cause cycles sum to its
 * workgroup's residency.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/gpushield_api.h"
#include "cli/commands.h"
#include "harness/suites.h"
#include "obs/profiler.h"
#include "obs/trace_json.h"
#include "workloads/runner.h"
#include "workloads/suites.h"

namespace gpushield::cli {

namespace {

void
print_summary(const obs::ProfileSummary &s, const StatSet &events)
{
    std::printf("profiled %llu cycles, %llu warp-cycles\n",
                static_cast<unsigned long long>(s.cycles),
                static_cast<unsigned long long>(s.warp_cycles));
    for (std::size_t c = 0; c < obs::kNumStallCauses; ++c) {
        if (s.cause_cycles[c] == 0)
            continue;
        std::printf("  %-18s %6.2f%%  (%llu)\n",
                    obs::to_string(static_cast<obs::StallCause>(c)),
                    100.0 * s.fraction(static_cast<obs::StallCause>(c)),
                    static_cast<unsigned long long>(s.cause_cycles[c]));
    }
    if (!events.counters().empty()) {
        std::printf("events:\n");
        for (const auto &[name, value] : events.counters())
            std::printf("  %-18s %llu\n", name.c_str(),
                        static_cast<unsigned long long>(value));
    }
}

/**
 * Checks what the trace alone cannot express: per warp, the recorded
 * cause cycles sum exactly to the workgroup's residency.
 */
bool
check_attribution(const obs::Profiler &prof, std::string *error)
{
    for (const obs::WorkgroupSpan &wg : prof.workgroups()) {
        if (wg.open)
            continue;
        const Cycle resident = wg.end - wg.start;
        for (std::size_t w = 0; w < wg.warps.size(); ++w) {
            if (wg.warps[w].total() == resident)
                continue;
            std::ostringstream os;
            os << "core " << wg.core << " wg " << wg.wg_index << " warp "
               << w << ": attributed " << wg.warps[w].total()
               << " cycles, resident " << resident;
            *error = os.str();
            return false;
        }
    }
    return true;
}

bool
check_trace_file(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        const JsonValue root = parse_json(buf.str());
        return obs::validate_trace(root, error);
    } catch (const SimulationError &e) {
        *error = e.what();
        return false;
    }
}

std::string
sanitize(const std::string &key)
{
    std::string out = key;
    for (char &c : out)
        if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.' &&
            c != '-' && c != '_')
            c = '_';
    return out;
}

int
run_single(const std::string &bench, const std::string &set,
           const std::string &config, bool shield, bool use_static,
           unsigned launches, Cycle interval, const std::string &out_path,
           bool summary)
{
    const workloads::BenchmarkDef *def =
        workloads::find_benchmark(bench, set);
    if (def == nullptr) {
        std::fprintf(stderr, "gpushield profile: unknown benchmark %s%s%s\n",
                     bench.c_str(), set.empty() ? "" : " in set ",
                     set.c_str());
        return 2;
    }
    if (config != "nvidia" && config != "intel") {
        std::fprintf(stderr, "gpushield profile: unknown config %s\n",
                     config.c_str());
        return 2;
    }
    const std::unique_ptr<std::ostream> out = open_output(out_path);
    if (!out)
        return 2;

    api::Context ctx(config == "intel" ? intel_config() : nvidia_config());
    const workloads::WorkloadInstance inst = def->make(ctx.driver());

    // WorkloadInstance stores buffers by buffer_index and scalars by arg
    // position; rebuild the positional Arg list the api expects.
    std::vector<api::Arg> args;
    for (std::size_t i = 0; i < inst.program.args.size(); ++i) {
        const KernelArgSpec &spec = inst.program.args[i];
        if (spec.is_pointer)
            args.push_back(api::arg(inst.buffers.at(
                static_cast<std::size_t>(spec.buffer_index))));
        else
            args.push_back(api::arg(inst.scalars.at(i),
                                    inst.scalar_static.at(i)
                                        ? api::Static::yes
                                        : api::Static::no));
    }

    api::LaunchOptions opts;
    opts.shield = shield;
    opts.static_analysis = use_static;
    opts.replace_sw_checks = inst.replace_sw_checks;
    opts.heap_bytes = inst.heap_bytes;
    opts.profile.enabled = true;
    opts.profile.sample_interval = interval;

    api::LaunchResult last;
    for (unsigned i = 0; i < launches; ++i) {
        last = ctx.launch(inst.program, {inst.ntid, inst.nctaid}, args, opts);
        if (!last.ok())
            std::fprintf(stderr, "gpushield profile: launch %u: %s (%s)\n",
                         i, api::to_string(last.status),
                         last.status_message.c_str());
    }

    ctx.profiler()->write_chrome_trace(*out);
    if (out_path != "-")
        std::fprintf(stderr, "gpushield profile: wrote %s\n",
                     out_path.c_str());
    if (summary)
        print_summary(last.profile, ctx.profiler()->events());
    return last.ok() ? 0 : 1;
}

int
run_suite(const harness::SuiteDef &suite, const std::string &out_dir,
          bool check)
{
    std::filesystem::create_directories(out_dir);

    const harness::SweepSpec spec = suite.make();
    unsigned written = 0, skipped = 0, failed = 0;
    for (const harness::CellSpec &cell : spec.cells) {
        const std::string key = harness::cell_key(spec, cell);
        if (!cell.workload_b.empty()) {
            // Pair cells interleave two kernels on one timeline; the
            // per-cell trace story is single-kernel for now.
            std::fprintf(stderr, "skip  %s (multi-kernel cell)\n",
                         key.c_str());
            ++skipped;
            continue;
        }

        const std::string path = out_dir + "/" + sanitize(key) + ".json";
        try {
            const GpuConfig &cfg = spec.config(cell.config);
            GpuDevice dev(cfg.mem.page_size);
            Driver driver(dev, harness::cell_seed(spec, cell));
            const workloads::BenchmarkDef *def =
                workloads::find_benchmark(cell.workload, cell.set);
            if (def == nullptr)
                throw SimulationError("no benchmark " + cell.workload +
                                      " in set " + cell.set);
            const workloads::WorkloadInstance inst = def->make(driver);

            obs::Profiler prof;
            if (cell.launches > 1)
                workloads::run_workload_n(cfg, driver, inst, cell.launches,
                                          cell.shield, cell.use_static, 0, 0,
                                          &prof);
            else
                workloads::run_workload(cfg, driver, inst, cell.shield,
                                        cell.use_static, 0, 0, &prof);

            std::string error;
            if (check && !check_attribution(prof, &error))
                throw SimulationError("attribution broken: " + error);

            std::ofstream out(path);
            if (!out.is_open())
                throw SimulationError("cannot open " + path);
            prof.write_chrome_trace(out);
            out.close();

            if (check && !check_trace_file(path, &error))
                throw SimulationError("invalid trace: " + error);

            std::fprintf(stderr, "ok    %s -> %s\n", key.c_str(),
                         path.c_str());
            ++written;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "FAIL  %s: %s\n", key.c_str(), e.what());
            ++failed;
        }
    }

    std::printf("profile suite %s: %u traces, %u skipped, %u failed%s\n",
                suite.name.c_str(), written, skipped, failed,
                check ? " (checked)" : "");
    return failed == 0 ? 0 : 1;
}

} // namespace

int
profile(int argc, char **argv)
{
    std::string bench, set, config = "nvidia", out_path = "-", out_dir;
    const harness::SuiteDef *suite = nullptr;
    unsigned launches = 1;
    Cycle interval = 64;
    bool no_shield = false, use_static = false, summary = false;
    bool check = false;

    const Options opts{"profile",
                       "(--benchmark NAME | --suite NAME --out-dir DIR) "
                       "[options]", {
        {"--benchmark", "NAME", "benchmark to profile", &bench},
        {"--set", "NAME", "cuda | opencl | fig19 (default: all)", &set},
        {"--config", "NAME", "machine config: nvidia | intel", &config},
        {"--no-shield", nullptr, "run the unprotected baseline", &no_shield},
        {"--static", nullptr, "enable static-analysis check elision",
         &use_static},
        {"--launches", "N", "back-to-back launches (default 1)", &launches},
        {"--interval", "N", "occupancy/IPC sampling period (default 64)",
         &interval},
        {"--out", "PATH", "Chrome trace output ('-' = stdout)", &out_path},
        {"--summary", nullptr, "print the stall-cause breakdown", &summary},
        {"--suite", "NAME", "trace every single-kernel cell of a sweep suite",
         &suite},
        {"--out-dir", "DIR", "suite mode: one trace file per cell",
         &out_dir},
        {"--check", nullptr, "suite mode: validate every trace, exit 1 if bad",
         &check},
    }};
    if (!opts.parse(argc, argv))
        return 2;

    if (suite != nullptr)
        return out_dir.empty() ? opts.usage()
                               : run_suite(*suite, out_dir, check);
    if (bench.empty())
        return opts.usage();
    return run_single(bench, set, config, !no_shield, use_static,
                      std::max(1u, launches), std::max<Cycle>(1, interval),
                      out_path, summary);
}

} // namespace gpushield::cli
