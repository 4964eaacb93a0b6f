/**
 * @file
 * gpushield throughput: simulator-throughput microbenchmark.
 *
 * Runs a suite single-threaded (one cell at a time) several times,
 * takes the best wall time, and reports simulated-cycles/sec and
 * stat-events/sec. The result is written as one JSON object
 * (BENCH_sim_throughput.json by default) so CI can track simulator
 * performance over time:
 *
 *   gpushield throughput --suite smoke --reps 5 \
 *       --json BENCH_sim_throughput.json
 *
 * Every run additionally appends one entry to the JSON's "trajectory"
 * array — (suite, cycles_per_sec, speedup_vs_seed) — so the file
 * carries the full optimisation history, not just the latest number.
 * speedup_vs_seed is measured against the original per-cycle engine's
 * 4.207e5 cycles/s.
 *
 * --engine-profile attaches the host-side engine profiler
 * (obs/engine_profile.h) and prints its per-phase wall-time report to
 * stderr — note its timer reads add a few percent of host overhead,
 * so don't mix it with record-keeping runs.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cli/commands.h"
#include "common/json.h"
#include "harness/executor.h"
#include "harness/metrics.h"
#include "harness/suites.h"
#include "obs/engine_profile.h"

namespace gpushield::cli {

namespace {

using namespace harness;

/** Cycles/s of the original per-cycle scan engine on the smoke suite
 *  (recorded before the event-driven rebuild); trajectory entries
 *  report their speedup against this fixed reference. */
constexpr double kSeedBaselineCyclesPerSec = 4.207e5;

/** Sum of every counter value in @p s. */
std::uint64_t
stat_events(const StatSet &s)
{
    std::uint64_t total = 0;
    for (const auto &[name, value] : s.counters())
        total += value;
    return total;
}

/**
 * Extracts the contents of the "trajectory":[...] array from a prior
 * result file (empty string when the file or the key is absent).
 * Entries are flat objects with no nested brackets, so scanning for
 * the next ']' is exact.
 */
std::string
prior_trajectory(const std::string &path)
{
    std::ifstream in(path);
    if (!in.is_open())
        return "";
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    const std::string key = "\"trajectory\":[";
    const std::size_t start = text.find(key);
    if (start == std::string::npos)
        return "";
    const std::size_t body = start + key.size();
    const std::size_t end = text.find(']', body);
    if (end == std::string::npos)
        return "";
    return text.substr(body, end - body);
}

} // namespace

int
throughput(int argc, char **argv)
{
    const SuiteDef *suite = find_suite("smoke");
    std::string json_path = "BENCH_sim_throughput.json";
    unsigned reps = 3;
    bool engine_profile = false;

    const Options opts{"throughput", "[options]", {
        {"--suite", "NAME", "suite to time (default: smoke)", &suite},
        {"--reps", "N", "repetitions; best wall time wins (default: 3)",
         &reps},
        {"--engine-profile", nullptr,
         "print host wall-time per engine phase (stderr)", &engine_profile},
        {"--json", "PATH",
         "result file (default: BENCH_sim_throughput.json)", &json_path},
    }};
    if (!opts.parse(argc, argv))
        return 2;
    if (reps == 0)
        reps = 1;

    // Read the history before opening the file truncates it.
    std::string trajectory = prior_trajectory(json_path);
    const std::unique_ptr<std::ostream> out = open_output(json_path);
    if (!out)
        return 2;

    const SweepSpec spec = suite->make();
    obs::HostEngineProfiler prof;
    SweepOptions sweep_opts;
    sweep_opts.jobs = 1; // one cell at a time: measure the engine, not the pool
    sweep_opts.progress = nullptr;
    sweep_opts.engine_prof = engine_profile ? &prof : nullptr;

    double best_wall = 0.0;
    std::uint64_t sim_cycles = 0;
    std::uint64_t events = 0;
    std::uint64_t cycles_skipped = 0;
    std::size_t cells = 0;
    bool all_ok = true;

    for (unsigned rep = 0; rep < reps; ++rep) {
        const SweepResult result = run_sweep(spec, sweep_opts);
        all_ok = all_ok && result.all_ok();
        if (rep == 0 || result.wall_seconds < best_wall)
            best_wall = result.wall_seconds;
        if (rep == 0) {
            // Simulation is deterministic: totals are rep-invariant.
            cells = result.metrics.records().size();
            for (const RunRecord &r : result.metrics.records()) {
                sim_cycles += r.cycles;
                cycles_skipped += r.cycles_skipped;
                events += stat_events(r.rcache) + stat_events(r.bcu) +
                          stat_events(r.mem) + stat_events(r.kernel);
            }
        }
        std::fprintf(stderr, "rep %u/%u: %.4f s\n", rep + 1, reps,
                     result.wall_seconds);
    }

    const double cycles_per_sec =
        best_wall > 0.0 ? static_cast<double>(sim_cycles) / best_wall : 0.0;
    const double events_per_sec =
        best_wall > 0.0 ? static_cast<double>(events) / best_wall : 0.0;
    const double speedup_vs_seed = cycles_per_sec / kSeedBaselineCyclesPerSec;

    std::ostringstream entry;
    entry << "{\"suite\":\"" << json_escape(suite->name) << "\""
          << ",\"cycles_per_sec\":" << fmt(cycles_per_sec, 1)
          << ",\"speedup_vs_seed\":" << fmt(speedup_vs_seed, 3) << "}";

    if (!trajectory.empty())
        trajectory += ",";
    trajectory += entry.str();

    std::ostringstream json;
    json << "{\"suite\":\"" << json_escape(suite->name) << "\""
         << ",\"reps\":" << reps << ",\"jobs\":1"
         << ",\"cells\":" << cells << ",\"all_ok\":"
         << (all_ok ? "true" : "false")
         << ",\"sim_cycles\":" << sim_cycles
         << ",\"cycles_skipped\":" << cycles_skipped
         << ",\"events\":" << events
         << ",\"best_wall_seconds\":" << fmt(best_wall, 6)
         << ",\"cycles_per_sec\":" << fmt(cycles_per_sec, 1)
         << ",\"events_per_sec\":" << fmt(events_per_sec, 1)
         << ",\"seed_baseline_cycles_per_sec\":"
         << fmt(kSeedBaselineCyclesPerSec, 1)
         << ",\"speedup_vs_seed\":" << fmt(speedup_vs_seed, 3)
         << ",\"trajectory\":[" << trajectory << "]}";

    *out << json.str() << "\n";

    std::printf("%s\n", json.str().c_str());
    std::printf("suite %s: %zu cells, %llu sim cycles (%llu skipped), "
                "%llu events, best of %u reps %.4f s -> %.3e cycles/s, "
                "%.3e events/s (%.2fx vs seed engine)\n",
                suite->name.c_str(), cells,
                static_cast<unsigned long long>(sim_cycles),
                static_cast<unsigned long long>(cycles_skipped),
                static_cast<unsigned long long>(events), reps, best_wall,
                cycles_per_sec, events_per_sec, speedup_vs_seed);
    if (engine_profile)
        std::fprintf(stderr, "%s", prof.report().c_str());
    return all_ok ? 0 : 1;
}

} // namespace gpushield::cli
