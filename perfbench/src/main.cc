/**
 * @file
 * perfbench: the repository benchmark. One process, one thread.
 *
 *   perfbench --workload <regular|irregular|multitenant|conform-fuzz>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--limit <units per pass>] [--trace-out <chrome.json>]
 *
 * Runs passes of the workload until --seconds have elapsed (at least
 * one). With --trace 0 every pass is plain and the last stdout line
 * holds the end-to-end metrics. With --trace 1 plain and traced passes
 * alternate, a profiled pass follows, and the last line holds the
 * per-layer metrics. Exits 1 when any unit failed a check.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/engine_profile.h"
#include "obs/profiler.h"

namespace perfbench {

namespace obs = gpushield::obs;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    unsigned limit = 0; //!< units per pass; 0 = the workload's full size
    std::string trace_out;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <regular|irregular|multitenant|"
                 "conform-fuzz> --seed <n> --seconds <s> --trace <0|1> "
                 "[--limit <n>] [--trace-out <file>]\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload") {
                o.workload = v;
            } else if (a == "--seed") {
                o.seed = std::stoull(v);
                have_seed = true;
            } else if (a == "--seconds") {
                o.seconds = std::stod(v);
                have_seconds = o.seconds > 0;
            } else if (a == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                o.trace = v == "1";
                have_trace = true;
            } else if (a == "--limit") {
                o.limit = static_cast<unsigned>(std::stoul(v));
            } else if (a == "--trace-out") {
                o.trace_out = v;
            } else {
                usage("unknown argument " + a);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (o.workload.empty() || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds (> 0) and --trace are required");
    return o;
}

std::unique_ptr<Workload>
make_workload(const Options &o)
{
    if (o.workload == "regular")
        return make_regular(o.seed, o.limit);
    if (o.workload == "irregular")
        return make_irregular(o.seed, o.limit);
    if (o.workload == "multitenant")
        return make_multitenant(o.seed, o.limit);
    if (o.workload == "conform-fuzz")
        return make_conform_fuzz(o.seed, o.limit);
    usage("unknown workload " + o.workload);
}

/**
 * The @p pct percentile of @p v as the mean of the values ranked within
 * 2.5 percentage points of it, or the nearest-rank value when that
 * window holds none (0 when empty). A plain percentile jumps when noise
 * moves a unit across a gap in the distribution at that rank, as
 * regular's units do at the 90th; the window mean moves by one unit's
 * share instead.
 */
double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    const auto rank = [n](double p) {
        return static_cast<std::size_t>(std::clamp(std::round(p / 100.0 * n), 0.0, n));
    };
    const std::size_t lo = rank(pct - 2.5), hi = rank(pct + 2.5);
    if (hi <= lo) {
        const auto r = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
        return v[std::clamp<std::size_t>(r, 1, v.size()) - 1];
    }
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i)
        sum += v[i];
    return sum / static_cast<double>(hi - lo);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

double
median_of(const std::vector<PassResult> &passes, double (*f)(const PassResult &))
{
    std::vector<double> v;
    for (const PassResult &p : passes)
        v.push_back(f(p));
    return median(v);
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/** One reported metric, in print order. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Peak RSS without the reference buffers, which run() makes resident
 *  before the workload exists. */
double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double kib = static_cast<double>(ru.ru_maxrss); // Linux: KiB
    return (kib - static_cast<double>(reference_bytes()) / 1024.0) / 1024.0;
}

/** A pass's unit time in calibrated seconds. */
double
wall_s(const PassResult &p)
{
    return p.units_s() * p.speed_factor();
}

/**
 * Every pass runs the same units in the same order. A unit's time is
 * the median of its repetitions (calibrated); percentiles are taken
 * over units.
 */
std::vector<double>
unit_medians(const std::vector<PassResult> &plain)
{
    std::size_t n = plain.front().unit_ms.size();
    for (const PassResult &p : plain)
        n = std::min(n, p.unit_ms.size());
    std::vector<double> units;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> reps;
        for (const PassResult &p : plain)
            reps.push_back(p.unit_ms[i] * p.speed_factor());
        units.push_back(median(reps));
    }
    return units;
}

std::vector<Metric>
end_to_end(const std::vector<PassResult> &plain)
{
    const std::vector<double> units = unit_medians(plain);
    // The simulated work of a pass is fixed (the repetition checks hold
    // every record to the first pass), so rates divide it by the median.
    const double wall = median_of(plain, wall_s);
    const PassResult &first = plain.front();
    return {
        {"wall_s", wall, "s"},
        {"sim_instr_per_s", static_cast<double>(first.instructions) / wall, "1/s"},
        {"sim_cycles_per_s", static_cast<double>(first.cycles) / wall, "1/s"},
        {"unit_ms_p50", percentile(units, 50.0), "ms"},
        {"unit_ms_p90", percentile(units, 90.0), "ms"},
        {"setup_s",
         median_of(plain, [](const PassResult &p) { return p.setup_s * p.speed_factor(); }),
         "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
}

double
shield_overhead_pct(const PassResult &p)
{
    if (p.shield_ratios.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double r : p.shield_ratios)
        log_sum += std::log(r);
    return (std::exp(log_sum / static_cast<double>(p.shield_ratios.size())) - 1.0) * 100.0;
}

std::vector<Metric>
per_layer(const std::vector<PassResult> &plain,
          const std::vector<PassResult> &traced, const PassResult &profiled,
          const Tracer &tracer, const obs::HostEngineProfiler &engine,
          std::uint64_t attempted, std::uint64_t failed)
{
    using obs::HostEngineProfiler;
    // Per traced pass, in calibrated seconds.
    const double scale =
        median_of(traced, [](const PassResult &p) { return p.speed_factor(); }) /
        static_cast<double>(traced.size());
    std::vector<Metric> m;
    for (const char *layer :
         {"workloads.make", "compiler.analyze", "sim.gpu_ctor", "driver.launch",
          "sim.run", "driver.finish", "service.submit", "service.step",
          "api.upload", "api.download", "conform.cell"})
        m.push_back({std::string(layer) + "_s", tracer.seconds(layer) * scale, "s"});
    m.push_back({"sim.issue_s",
                 static_cast<double>(engine.ns(HostEngineProfiler::Phase::Issue)) / 1e9 * scale,
                 "s"});
    m.push_back({"sim.events_s",
                 static_cast<double>(engine.ns(HostEngineProfiler::Phase::Events)) / 1e9 * scale,
                 "s"});

    // Simulated counters are exact and identical in every pass; the
    // first traced pass also carries the static-pass counts.
    const gpushield::StatSet &c = traced.front().counters;
    const auto n = [&c](const char *k) { return static_cast<double>(c.get(k)); };
    const std::uint64_t retries = c.get("dram_retries");
    const std::uint64_t requests = c.get("dram_requests");
    m.insert(m.end(), {
        {"mem.dram_retries", n("dram_retries"), "count"},
        {"mem.dram_requests", n("dram_requests"), "count"},
        {"mem.dram_accept_ratio", ratio(requests, requests + retries), "ratio"},
        {"mem.dram_row_hit_rate",
         ratio(c.get("dram_row_hits"), c.get("dram_row_hits") + c.get("dram_row_misses")),
         "ratio"},
        {"mem.l1_hit_rate", ratio(c.get("l1_hits"), c.get("l1_accesses")), "ratio"},
        {"mem.l2_hit_rate", ratio(c.get("l2_hits"), c.get("l2_accesses")), "ratio"},
        {"mem.l1_tlb_hit_rate", ratio(c.get("l1_tlb_hits"), c.get("l1_tlb_accesses")), "ratio"},
        {"mem.page_walks", n("page_walks"), "count"},
        {"sim.instructions", n("instructions"), "count"},
        {"sim.cycles", n("cycles"), "cycles"},
        {"sim.transactions_per_mem_op", ratio(c.get("transactions"), c.get("mem_ops")), "ratio"},
        {"sim.cycles_skipped_pct", 100.0 * ratio(c.get("cycles_skipped"), c.get("cycles")), "%"},
        {"shield.bcu_checks", n("bcu_checks"), "count"},
        {"shield.rcache_l1_hit_rate", ratio(c.get("rcache_l1_hits"), c.get("rcache_lookups")),
         "ratio"},
        {"shield.rcache_refills", n("rcache_refills"), "count"},
        {"shield.checks_covered", n("checks_covered"), "count"},
        {"shield.cover_probe_fails", n("cover_probe_fails"), "count"},
        {"shield.violations", n("violations"), "count"},
        {"shield_overhead_pct", shield_overhead_pct(traced.front()), "%"},
        {"compiler.static_safe_pct", 100.0 * ratio(c.get("bat_safe"), c.get("bat_rows")), "%"},
        {"compiler.bcu_lookups_saved_pct",
         c.get("region_bcu_checks") == 0
             ? 0.0
             : 100.0 * (1.0 - ratio(c.get("checkopt_bcu_checks"), c.get("region_bcu_checks"))),
         "%"},
    });

    const gpushield::StatSet &s = profiled.counters;
    for (std::size_t i = 0; i < obs::kNumStallCauses; ++i) {
        const std::string cause =
            obs::to_string(static_cast<obs::StallCause>(i));
        m.push_back({"obs.stall." + cause + "_pct",
                     100.0 * ratio(s.get("stall." + cause), s.get("warp_cycles")), "%"});
    }

    m.insert(m.end(), {
        {"service.queue_rejects", n("queue_rejects"), "count"},
        {"tenant_latency_p50_cycles", n("tenant_latency_p50_cycles"), "cycles"},
        {"tenant_latency_p99_cycles", n("tenant_latency_p99_cycles"), "cycles"},
        {"conform.false_negatives", n("conform_fn_checks"), "count"},
        {"conform.image_divergences", n("conform_image_divergences"), "count"},
        {"conform.fp_checks", n("conform_fp_checks"), "count"},
        {"bench.trace_overhead_pct",
         100.0 * (median_of(traced, wall_s) / median_of(plain, wall_s) - 1.0), "%"},
        {"failed_frac", ratio(failed, attempted), "ratio"},
    });
    return m;
}

void
print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
             const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int
run(const Options &o)
{
    // Reference samples before the workload exists: what a sample reads
    // with no unit before it (stderr only, to compare with the passes).
    std::vector<double> idle;
    (void)reference_seconds();
    for (int i = 0; i < 5; ++i)
        idle.push_back(reference_seconds());
    std::cerr << "perfbench: reference with no unit before it: " << median(idle) * 1e3
              << " ms\n";
    const std::unique_ptr<Workload> wl = make_workload(o);
    Tracer tracer;
    obs::HostEngineProfiler engine;
    std::vector<PassResult> plain, traced;
    PassResult profiled;

    // Set-up is small next to a pass, so each pass sets up several
    // times and keeps the median time (and the last inputs built).
    // The release before each set-up is untimed.
    const auto pass = [&](Mode mode) {
        std::vector<double> setups;
        for (int i = 0; i < 9; ++i) {
            wl->release();
            const auto t0 = Clock::now();
            wl->setup();
            setups.push_back(seconds_since(t0));
        }
        tracer.set_enabled(mode == Mode::Traced);
        PassResult p = wl->run_pass(mode, tracer, mode == Mode::Traced ? &engine : nullptr);
        tracer.set_enabled(false);
        p.setup_s = median(setups);
        std::cerr << "perfbench: pass: setup " << p.setup_s << " s, units " << p.units_s()
                  << " s, speed factor " << p.speed_factor() << ", reference after a unit "
                  << median(p.reference_warmup_s) * 1e3 << " ms warm-up, "
                  << median(p.reference_s) * 1e3 << " ms timed\n";
        for (const std::string &why : p.failures)
            std::cerr << "perfbench: FAILED " << why << "\n";
        return p;
    };
    const auto start = Clock::now();
    do {
        plain.push_back(pass(Mode::Plain));
        if (o.trace)
            traced.push_back(pass(Mode::Traced));
    } while (seconds_since(start) < o.seconds);
    if (o.trace)
        profiled = pass(Mode::Profiled);

    std::uint64_t attempted = profiled.attempted, failed = profiled.failed;
    for (const std::vector<PassResult> *set : {&plain, &traced})
        for (const PassResult &p : *set) {
            attempted += p.attempted;
            failed += p.failed;
        }

    std::cerr << "perfbench: " << o.workload << " seed " << o.seed << ": "
              << plain.size() << " plain, " << traced.size() << " traced pass(es), "
              << plain.front().attempted << " units per pass\n";
    if (!plain.front().shield_ratios.empty())
        std::cerr << "perfbench: shield_overhead_pct "
                  << shield_overhead_pct(plain.front())
                  << " (simulated, model not validated against hardware; "
                     "paper Fig. 14: ~1% geomean, this model's fig14 suite: 0.9%)\n";
    if (!o.trace_out.empty() && o.trace && !tracer.write_chrome(o.trace_out))
        std::cerr << "perfbench: cannot write " << o.trace_out << "\n";

    const std::vector<Metric> metrics =
        o.trace ? per_layer(plain, traced, profiled, tracer, engine, attempted, failed)
                : end_to_end(plain);
    print_result(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Options opts = perfbench::parse(argc, argv);
    try {
        return perfbench::run(opts);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: error: " << e.what() << "\n";
        return 2;
    }
}
