/**
 * @file
 * The `regular` and `irregular` workloads: single-kernel sweep cells
 * over the CUDA corpus, run through harness::run_cell when plain and
 * layer by layer (run_leg) when traced.
 */

#include <stdexcept>
#include <string>
#include <vector>

#include "harness/executor.h"
#include "harness/sweep.h"
#include "layers.h"
#include "workloads/kernels.h"
#include "workloads/suites.h"

namespace perfbench {

namespace {

using namespace gpushield;
using harness::CellSpec;
using harness::RunRecord;
using harness::SweepSpec;

/** How one cell of a kernel uses the shield layer. */
struct Variant
{
    const char *config; //!< "region" or "armor" backend config
    bool shield;
    bool use_static;
    bool check_opt;
};

// regular: every path through the shield layer, so a gain on one path
// that costs another shows. The first variant is the baseline the
// others are paired with.
const std::vector<Variant> kRegularVariants = {
    {"region", false, false, false},
    {"region", true, false, false},
    {"region", true, true, false},
    {"region", true, false, true},
    {"armor", true, false, false},
};
const std::vector<Variant> kIrregularVariants = {
    {"region", false, false, false},
    {"region", true, false, false},
};

// Graph kernels spanning low (b+tree, ~0.7M), middle (nw, ~2.8M) and
// high (spmv, ~9.5M) DRAM back-pressure retries per cell. Listed so the
// profiled subset (every other kernel) skips the costliest one.
const std::vector<std::string> kIrregularKernels = {"b+tree", "spmv", "nw"};

/** The graph pattern takes only the kernel name from its benchmark, so
 *  a benchmark is built on it exactly when its program disassembles
 *  like make_graph under that name. */
bool
is_graph_pattern(const workloads::BenchmarkDef &def)
{
    GpuDevice dev;
    Driver driver(dev);
    const workloads::WorkloadInstance inst = def.make(driver);
    workloads::PatternParams p;
    p.name = def.name;
    return workloads::make_graph(p).disassemble() ==
           inst.program.disassemble();
}

const workloads::BenchmarkDef &
cuda_benchmark(const std::string &name)
{
    for (const workloads::BenchmarkDef &d : workloads::cuda_benchmarks())
        if (d.name == name)
            return d;
    throw std::runtime_error("no CUDA benchmark " + name);
}

class CellWorkload final : public Workload
{
  public:
    CellWorkload(bool irregular, std::uint64_t seed, unsigned limit)
        : irregular_(irregular), seed_(seed), limit_(limit),
          variants_(irregular ? kIrregularVariants : kRegularVariants),
          profile_every_(irregular ? 2 : 4)
    {
    }

    void setup() override { spec_ = build_spec(); }
    void release() override { spec_ = SweepSpec{}; }

    PassResult
    run_pass(Mode mode, Tracer &tracer,
             obs::HostEngineProfiler *engine_prof) override
    {
        PassResult p;
        const SweepSpec &spec = spec_;
        const std::size_t n = spec.cells.size();
        std::vector<RunRecord> recs(n);
        for (std::size_t i = 0; i < n; ++i) {
            if (mode == Mode::Profiled &&
                (i / variants_.size()) % profile_every_ != 0)
                continue;
            const auto u0 = Clock::now();
            RunRecord r;
            if (mode == Mode::Traced) {
                auto s = tracer.span("unit");
                r = traced_cell(spec, i, tracer, engine_prof, p.counters);
            } else {
                r = harness::run_cell(spec, i, mode == Mode::Profiled);
            }
            p.unit(seconds_since(u0) * 1e3, check(r, i, mode));
            p.instructions += r.kernel.get("instructions");
            p.cycles += r.cycles;
            add_counters(p.counters, r.cycles, r.cycles_skipped,
                         r.violations, r.rcache, r.bcu, r.mem, r.kernel);
            p.counters.merge(r.obs);
            recs[i] = std::move(r);
        }

        pair_up(spec, recs, p);
        if (mode == Mode::Plain && first_.empty())
            first_ = std::move(recs);
        return p;
    }

  private:
    SweepSpec
    build_spec() const
    {
        SweepSpec spec;
        // The spec name is part of every cell key, so the seed reaches
        // every cell's driver seed (IDs, keys) through it.
        spec.name = "perfbench-" + std::to_string(seed_);
        const GpuConfig region = nvidia_config();
        GpuConfig armor = region;
        armor.shield.backend = ShieldBackendKind::Armor;
        spec.add_config("region", region);
        spec.add_config("armor", armor);

        std::vector<std::string> kernels;
        if (irregular_) {
            for (const std::string &name : kIrregularKernels) {
                if (!is_graph_pattern(cuda_benchmark(name)))
                    throw std::runtime_error(name + " is not a graph kernel");
                kernels.push_back(name);
            }
        } else {
            for (const workloads::BenchmarkDef &d : workloads::cuda_benchmarks())
                if (!is_graph_pattern(d))
                    kernels.push_back(d.name);
        }
        for (const std::string &k : kernels)
            for (const Variant &v : variants_) {
                CellSpec c;
                c.workload = k;
                c.config = v.config;
                c.shield = v.shield;
                c.use_static = v.use_static;
                c.check_opt = v.check_opt;
                spec.cells.push_back(c);
            }
        if (limit_ != 0 && spec.cells.size() > limit_)
            spec.cells.resize(limit_);
        return spec;
    }

    /** harness::run_cell's single-launch path, one span per layer call. */
    static RunRecord
    traced_cell(const SweepSpec &spec, std::size_t index, Tracer &tracer,
                obs::HostEngineProfiler *engine_prof, StatSet &counters)
    {
        const CellSpec &cell = spec.cells.at(index);
        RunRecord r;
        r.key = harness::cell_key(spec, cell);
        r.suite = spec.name;
        r.set = cell.set;
        r.workload = cell.workload;
        r.workload_b = cell.workload_b;
        r.config = cell.config;
        r.placement = harness::to_string(cell.placement);
        r.shield = cell.shield;
        r.use_static = cell.use_static;
        r.launches = cell.launches;
        r.seed = harness::cell_seed(spec, cell);
        try {
            const GpuConfig &cfg = spec.config(cell.config);
            GpuDevice dev(cfg.mem.page_size);
            Driver driver(dev, r.seed);
            driver.set_shield_backend(cfg.shield.backend);
            workloads::WorkloadInstance inst;
            {
                auto s = tracer.span("workloads.make");
                inst = cuda_benchmark(cell.workload).make(driver);
            }
            inst.optimize_checks = cell.shield && cell.check_opt;
            const Leg leg = run_leg(cfg, driver, inst, cell.shield,
                                    cell.use_static, tracer, engine_prof);
            counters.add("bat_rows", cell.use_static ? leg.bat_rows : 0);
            counters.add("bat_safe", leg.bat_safe);
            const workloads::RunOutcome &out = leg.out;
            r.cycles = out.result.cycles();
            r.violations = out.result.violations.size();
            r.aborted = out.result.aborted;
            r.rcache = out.rcache;
            r.bcu = out.bcu;
            r.mem = out.mem;
            r.kernel = out.result.stats;
            r.kernel.set("canary_reports",
                         static_cast<std::uint64_t>(out.canaries.size()));
            r.l1_rcache_hit_rate = out.l1_rcache_hit_rate;
            r.cycles_skipped = out.cycles_skipped;
            r.ok = true;
        } catch (const std::exception &e) {
            r.ok = false;
            r.error = e.what();
        }
        return r;
    }

    /** Why cell @p i failed its checks; empty when it passed. */
    std::string
    check(const RunRecord &r, std::size_t i, Mode mode) const
    {
        if (!r.ok)
            return r.key + ": " + r.error;
        if (r.aborted)
            return r.key + ": aborted";
        if (r.violations != 0)
            return r.key + ": violation on a clean kernel";
        // The profiler's per-cycle stepping is checked by the repo's own
        // tests; here its records carry the extra "obs" roll-up.
        if (mode != Mode::Profiled && !first_.empty() && !(r == first_[i]))
            return r.key + (mode == Mode::Traced
                                ? ": traced record differs from run_cell"
                                : ": record differs from first repetition");
        return {};
    }

    /** Counts the cells the shield layer saw, paired with baselines. */
    void
    pair_up(const SweepSpec &spec, const std::vector<RunRecord> &recs,
            PassResult &p) const
    {
        const std::size_t v = variants_.size();
        for (std::size_t base = 0; base + v <= recs.size(); base += v) {
            const RunRecord &b = recs[base];
            const RunRecord *region = nullptr, *check_opt = nullptr;
            for (std::size_t j = 1; j < v; ++j) {
                const RunRecord &s = recs[base + j];
                if (b.ok && s.ok && b.cycles != 0)
                    p.shield_ratios.push_back(static_cast<double>(s.cycles) /
                                              static_cast<double>(b.cycles));
                const CellSpec &c = spec.cells[base + j];
                if (c.check_opt)
                    check_opt = &s;
                else if (!c.use_static && c.config == "region")
                    region = &s;
            }
            if (region != nullptr && check_opt != nullptr) {
                p.counters.add("region_bcu_checks", region->bcu.get("checks"));
                p.counters.add("checkopt_bcu_checks", check_opt->bcu.get("checks"));
            }
        }
    }

    bool irregular_;
    std::uint64_t seed_;
    unsigned limit_;
    const std::vector<Variant> &variants_;
    std::size_t profile_every_; //!< profiled pass: every n-th kernel
    SweepSpec spec_;
    std::vector<RunRecord> first_; //!< first plain pass, per cell
};

} // namespace

std::unique_ptr<Workload>
make_regular(std::uint64_t seed, unsigned limit)
{
    return std::make_unique<CellWorkload>(false, seed, limit);
}

std::unique_ptr<Workload>
make_irregular(std::uint64_t seed, unsigned limit)
{
    return std::make_unique<CellWorkload>(true, seed, limit);
}

} // namespace perfbench
