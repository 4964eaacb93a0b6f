/**
 * @file
 * The `conform-fuzz` workload: seeded fuzz kernels through
 * conform::run_conformance_cell, alternating clean and planted
 * (one out-of-bounds access) kernels, and check-opt off and on.
 *
 * run_conformance_cell builds its own devices and reports no simulated
 * instruction or cycle counts, so every cell also runs one shield-on
 * timing leg of the same kernel from benchmark code. That leg gives the
 * workload its simulated rates and its layer spans.
 */

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "conform/runner.h"
#include "layers.h"

namespace perfbench {

namespace {

using namespace gpushield;

constexpr unsigned kCellsPerPass = 400;
constexpr unsigned kProfiledCells = 24;

class ConformFuzz final : public Workload
{
  public:
    ConformFuzz(std::uint64_t seed, unsigned limit)
        : seed_(seed), num_cells_(limit == 0 ? kCellsPerPass : limit)
    {
    }

    void
    setup() override
    {
        for (unsigned i = 0; i < num_cells_; ++i) {
            conform::FuzzKnobs k;
            k.seed = mix(seed_, i);
            k.plant = i % 2 == 1;
            conform::ConformCell c = conform::fuzz_cell(k);
            c.check_opt = (i / 2) % 2 == 1;
            cells_.push_back(std::move(c));
        }
    }

    void release() override { cells_ = {}; }

    PassResult
    run_pass(Mode mode, Tracer &tracer,
             obs::HostEngineProfiler *engine_prof) override
    {
        PassResult p;
        const std::size_t n =
            mode == Mode::Profiled ? std::min<std::size_t>(cells_.size(), kProfiledCells)
                                   : cells_.size();
        std::vector<std::string> sigs(n);
        for (std::size_t i = 0; i < n; ++i) {
            const conform::ConformCell &cell = cells_[i];
            const auto u0 = Clock::now();
            std::string why;
            workloads::RunOutcome out;
            {
                auto unit = tracer.span("unit");
                if (mode != Mode::Profiled) {
                    conform::ConformCellResult res;
                    {
                        auto s = tracer.span("conform.cell");
                        res = conform::run_conformance_cell(cell);
                    }
                    why = check_cell(cell, res, p);
                    sigs[i] = signature(res);
                }
                out = timing_leg(cell, mode, tracer, engine_prof, p);
            }
            if (why.empty())
                why = check_leg(cell, out);
            sigs[i] += " " + std::to_string(out.result.cycles()) + " " +
                       std::to_string(out.result.violations.size());
            if (why.empty() && mode != Mode::Profiled && !first_.empty() &&
                sigs[i] != first_[i])
                why = cell.name + (mode == Mode::Traced
                                       ? ": traced result differs from untraced"
                                       : ": result differs from first repetition");
            p.unit(seconds_since(u0) * 1e3, why);
        }
        if (mode == Mode::Plain && first_.empty())
            first_ = std::move(sigs);
        return p;
    }

  private:
    /** The shield-on leg (with the cell's check-opt setting). */
    static workloads::RunOutcome
    timing_leg(const conform::ConformCell &cell, Mode mode, Tracer &tracer,
               obs::HostEngineProfiler *engine_prof, PassResult &p)
    {
        GpuDevice dev(cell.cfg.mem.page_size);
        Driver driver(dev, cell.seed);
        driver.set_shield_backend(cell.cfg.shield.backend);
        workloads::WorkloadInstance w;
        {
            auto s = tracer.span("workloads.make");
            w = cell.make(driver);
        }
        w.optimize_checks = cell.check_opt;
        workloads::RunOutcome out;
        if (mode == Mode::Traced) {
            out = run_leg(cell.cfg, driver, w, true, false, tracer, engine_prof).out;
        } else if (mode == Mode::Profiled) {
            obs::Profiler prof(rollup_profile());
            out = workloads::run_workload(cell.cfg, driver, w, true, false, 0, 0, &prof);
            p.counters.merge(prof.summary().to_statset());
        } else {
            out = workloads::run_workload(cell.cfg, driver, w, true, false);
        }
        p.instructions += out.result.stats.get("instructions");
        p.cycles += out.result.cycles();
        add_counters(p.counters, out.result.cycles(), out.cycles_skipped,
                     out.result.violations.size(), out.rcache, out.bcu,
                     out.mem, out.result.stats);
        return out;
    }

    static std::string
    check_cell(const conform::ConformCell &cell,
               const conform::ConformCellResult &res, PassResult &p)
    {
        const std::uint64_t fn = res.conform.get("fn_checks");
        const bool diverged = !res.image_match && !res.schedule_dependent;
        p.counters.add("conform_fn_checks", fn);
        p.counters.add("conform_fp_checks", res.conform.get("fp_checks"));
        p.counters.add("conform_image_divergences", diverged ? 1 : 0);
        if (fn != 0)
            return cell.name + ": oracle false negative";
        if (diverged)
            return cell.name + ": memory image divergence";
        if (cell.expect_violation && res.violations == 0)
            return cell.name + ": planted access not flagged";
        if (!res.ok)
            return cell.name + ": " +
                   (res.failures.empty() ? "not ok" : res.failures.front());
        return {};
    }

    static std::string
    check_leg(const conform::ConformCell &cell, const workloads::RunOutcome &out)
    {
        const bool flagged = !out.result.violations.empty();
        if (cell.expect_violation && !flagged)
            return cell.name + ": timing leg missed the planted access";
        if (!cell.expect_violation && (flagged || out.result.aborted))
            return cell.name + ": timing leg flagged a clean kernel";
        return {};
    }

    static std::string
    signature(const conform::ConformCellResult &res)
    {
        std::ostringstream os;
        os << res.ok << res.image_match << res.schedule_dependent << ' '
           << res.violations;
        for (const auto &[name, value] : res.conform.counters())
            os << ' ' << name << '=' << value;
        return os.str();
    }

    std::uint64_t seed_;
    unsigned num_cells_;
    std::vector<conform::ConformCell> cells_;
    std::vector<std::string> first_; //!< first plain pass, per cell
};

} // namespace

std::unique_ptr<Workload>
make_conform_fuzz(std::uint64_t seed, unsigned limit)
{
    return std::make_unique<ConformFuzz>(seed, limit);
}

} // namespace perfbench
