/**
 * @file
 * gpushield conformance: differential conformance checking of the
 * shield against the per-lane oracle.
 *
 *   gpushield conformance --suite corpus             # every benchmark
 *   gpushield conformance --seeds 200                # fuzz (clean + oob)
 *   gpushield conformance --fuzz-one 17 --plant      # one kernel
 *
 * A failing fuzz cell is automatically shrunk by the greedy knob
 * minimizer, which prints a one-line repro command.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli/commands.h"
#include "conform/runner.h"

namespace gpushield::cli {

namespace {

using namespace conform;

/** Greedily halves every knob while the cell keeps failing under the
 *  backend and check-opt setting of @p failing. */
FuzzKnobs
minimize(FuzzKnobs k, const ConformCell &failing)
{
    const auto still_fails = [&failing](const FuzzKnobs &t) {
        ConformCell c = fuzz_cell(t);
        c.cfg.shield.backend = failing.cfg.shield.backend;
        c.check_opt = failing.check_opt;
        return !run_conformance_cell(c).ok;
    };
    bool shrunk = true;
    while (shrunk) {
        shrunk = false;
        for (int knob = 0; knob < 4; ++knob) {
            FuzzKnobs t = k;
            switch (knob) {
              case 0: t.steps = t.steps > 1 ? t.steps / 2 : t.steps; break;
              case 1: t.nbufs = t.nbufs > 1 ? t.nbufs / 2 : t.nbufs; break;
              case 2: t.ntid = t.ntid > 32 ? t.ntid / 2 : t.ntid; break;
              case 3:
                t.nctaid = t.nctaid > 1 ? t.nctaid / 2 : t.nctaid;
                break;
            }
            if (t.steps == k.steps && t.nbufs == k.nbufs &&
                t.ntid == k.ntid && t.nctaid == k.nctaid)
                continue;
            if (still_fails(t)) {
                k = t;
                shrunk = true;
            }
        }
    }
    return k;
}

struct TableRow
{
    std::string group;
    StatSet conform;
    std::uint64_t cells = 0;
};

void
print_fp_table(const std::vector<TableRow> &rows)
{
    std::printf("| group | cells | checks | flagged | fp checks | "
                "fp rate | in-bounds lanes squashed | padding lanes |\n");
    std::printf("|---|---|---|---|---|---|---|---|\n");
    for (const TableRow &row : rows) {
        const std::uint64_t checks = row.conform.get("checked");
        const std::uint64_t flagged =
            row.conform.get("agree_violation") +
            row.conform.get("fp_checks");
        const std::uint64_t fp = row.conform.get("fp_checks");
        const double rate =
            checks > 0 ? static_cast<double>(fp) /
                             static_cast<double>(checks)
                       : 0.0;
        std::printf("| %s | %llu | %llu | %llu | %llu | %.6f | %llu | "
                    "%llu |\n",
                    row.group.c_str(),
                    static_cast<unsigned long long>(row.cells),
                    static_cast<unsigned long long>(checks),
                    static_cast<unsigned long long>(flagged),
                    static_cast<unsigned long long>(fp), rate,
                    static_cast<unsigned long long>(
                        row.conform.get("fp_lanes")),
                    static_cast<unsigned long long>(
                        row.conform.get("padding_lanes")));
    }
}

} // namespace

Options
conformance_options(ConformanceArgs &a)
{
    return {"conformance",
            "[--suite corpus] [--seeds N] [--fuzz-one SEED] [options]", {
        {"--suite", "corpus", "run every corpus benchmark (cuda + opencl)",
         [&a](const char *v) {
             return a.corpus = std::strcmp(v, "corpus") == 0;
         }},
        {"--seeds", "N", "run N clean + N planted fuzz kernels", &a.seeds},
        {"--fuzz-one", "SEED", "run a single fuzz kernel",
         [&a](const char *v) {
             a.fuzz_one = true;
             return parse_number(v, a.one.seed);
         }},
        {"--plant", nullptr,
         "plant one out-of-bounds access (--fuzz-one)", &a.one.plant},
        {"--steps", "N", "fuzz generator steps (--fuzz-one)",
         &a.one.steps},
        {"--nbufs", "N", "fuzz buffer count (--fuzz-one)",
         &a.one.nbufs},
        {"--ntid", "N", "workgroup size (--fuzz-one)", &a.one.ntid},
        {"--nctaid", "N", "workgroup count (--fuzz-one)",
         &a.one.nctaid},
        {"--backend", "NAME", "shield backend: region (default) or armor",
         &a.backend},
        {"--check-opt", nullptr, "loop-aware check-opt on the shield legs",
         &a.check_opt},
        {"--fp-table", nullptr, "print the warp-level false-positive table",
         &a.fp_table},
        {"--no-minimize", nullptr, "do not shrink failing fuzz cells",
         &a.no_minimize},
        {"--quiet", nullptr, "suppress per-cell progress", &a.quiet},
    }};
}

int
conformance(int argc, char **argv)
{
    ConformanceArgs a;
    const Options opts = conformance_options(a);
    if (!opts.parse(argc, argv))
        return 2;
    if (!a.corpus && a.seeds == 0 && !a.fuzz_one)
        return opts.usage();

    struct Planned
    {
        ConformCell cell;
        bool is_fuzz = false;
        FuzzKnobs knobs;
        std::string group;
    };
    std::vector<Planned> plan;

    if (a.corpus) {
        for (const auto &def : workloads::cuda_benchmarks())
            plan.push_back({corpus_cell(def), false, {}, "corpus-cuda"});
        for (const auto &def : workloads::opencl_benchmarks())
            plan.push_back(
                {corpus_cell(def), false, {}, "corpus-opencl"});
    }
    for (std::uint64_t s = 0; s < a.seeds; ++s) {
        for (const bool plant : {false, true}) {
            FuzzKnobs k;
            k.seed = s;
            k.plant = plant;
            k = resolve_knobs(k);
            plan.push_back({fuzz_cell(k), true, k,
                            plant ? "fuzz-planted" : "fuzz-clean"});
        }
    }
    if (a.fuzz_one) {
        const FuzzKnobs k = resolve_knobs(a.one);
        plan.push_back({fuzz_cell(k), true, k, "fuzz-one"});
    }
    for (Planned &p : plan) {
        p.cell.cfg.shield.backend = a.backend;
        p.cell.check_opt = a.check_opt;
    }

    ConformSuiteResult suite;
    std::vector<TableRow> rows;
    std::uint64_t divergences = 0, sched_dep = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const Planned &p = plan[i];
        ConformCellResult res = run_conformance_cell(p.cell);
        if (!a.quiet || !res.ok) {
            std::fprintf(stderr, "[%zu/%zu] %-40s %s\n", i + 1,
                         plan.size(), res.name.c_str(),
                         res.ok ? "ok" : "FAIL");
            for (const std::string &f : res.failures)
                std::fprintf(stderr, "    %s\n", f.c_str());
            if (!res.oracle_report.empty())
                std::fprintf(stderr, "%s", res.oracle_report.c_str());
        }
        divergences += !res.image_match;
        sched_dep += res.schedule_dependent;

        TableRow *row = nullptr;
        for (TableRow &existing : rows)
            if (existing.group == p.group)
                row = &existing;
        if (row == nullptr) {
            rows.push_back({p.group, StatSet{}, 0});
            row = &rows.back();
        }
        row->conform.merge(res.conform);
        ++row->cells;
        suite.conform.merge(res.conform);

        if (!res.ok && p.is_fuzz && !a.no_minimize) {
            std::fprintf(stderr, "    minimizing...\n");
            const FuzzKnobs small = minimize(p.knobs, p.cell);
            std::fprintf(stderr, "    minimal repro: %s\n",
                         small.repro(a.backend, a.check_opt).c_str());
        }
        suite.cells.push_back(std::move(res));
    }

    if (a.fp_table)
        print_fp_table(rows);

    std::printf("conformance: %zu cells, %llu failed, "
                "false_negatives=%llu, image_divergences=%llu, "
                "fp_checks=%llu, schedule_dependent=%llu\n",
                suite.cells.size(),
                static_cast<unsigned long long>(suite.failures()),
                static_cast<unsigned long long>(
                    suite.conform.get("fn_checks")),
                static_cast<unsigned long long>(divergences),
                static_cast<unsigned long long>(
                    suite.conform.get("fp_checks")),
                static_cast<unsigned long long>(sched_dep));
    return suite.all_ok() ? 0 : 1;
}

} // namespace gpushield::cli
