#include "layers.h"

#include <optional>
#include <utility>

#include "compiler/static_analysis.h"
#include "obs/engine_profile.h"
#include "sim/gpu.h"

namespace perfbench {

using namespace gpushield;

namespace {

/** The facts Driver::launch hands the static pass, from public state.
 *  Power-of-two reservation is not visible through the API, so the
 *  probe analyses every buffer as exactly sized. */
StaticLaunchInfo
launch_info(const Driver &driver, const workloads::WorkloadInstance &inst)
{
    const KernelProgram &prog = inst.program;
    StaticLaunchInfo info;
    info.ntid = inst.ntid;
    info.nctaid = inst.nctaid;
    info.arg_buffer_sizes.assign(prog.args.size(), 0);
    info.arg_buffer_pow2.assign(prog.args.size(), false);
    info.arg_buffer_readonly.assign(prog.args.size(), false);
    info.scalar_values.assign(prog.args.size(), std::nullopt);
    for (std::size_t a = 0; a < prog.args.size(); ++a) {
        const KernelArgSpec &spec = prog.args[a];
        if (spec.is_pointer && spec.buffer_index >= 0 &&
            static_cast<std::size_t>(spec.buffer_index) < inst.buffers.size()) {
            const VaRegion &r = driver.region(inst.buffers[spec.buffer_index]);
            info.arg_buffer_sizes[a] = r.size;
            info.arg_buffer_readonly[a] = r.read_only;
        } else if (!spec.is_pointer && a < inst.scalar_static.size() &&
                   inst.scalar_static[a] && a < inst.scalars.size()) {
            info.scalar_values[a] = inst.scalars[a];
        }
    }
    return info;
}

} // namespace

Leg
run_leg(const GpuConfig &cfg, Driver &driver,
        const workloads::WorkloadInstance &inst, bool shield,
        bool use_static, Tracer &tracer, obs::HostEngineProfiler *engine_prof)
{
    {
        auto s = tracer.span("compiler.analyze");
        (void)analyze_kernel(inst.program, launch_info(driver, inst));
    }
    std::optional<Gpu> gpu;
    {
        auto s = tracer.span("sim.gpu_ctor");
        gpu.emplace(cfg, driver);
    }
    gpu->set_engine_profiler(engine_prof);

    Leg leg;
    LaunchState state;
    {
        auto s = tracer.span("driver.launch");
        state = driver.launch(inst.make_config(shield, use_static));
    }
    leg.bat_rows = state.bat.entries.size();
    if (shield && use_static)
        for (const BatEntry &e : state.bat.entries)
            leg.bat_safe += e.verdict == Verdict::InBounds ? 1 : 0;

    std::size_t idx = 0;
    {
        auto s = tracer.span("sim.run");
        idx = gpu->launch(std::move(state));
        gpu->run();
    }
    workloads::RunOutcome &out = leg.out;
    out.result = gpu->result(idx);
    {
        auto s = tracer.span("driver.finish");
        out.canaries = driver.finish(gpu->launch_state(idx));
    }
    out.rcache = gpu->rcache_stats();
    out.bcu = gpu->bcu_stats();
    out.mem = workloads::collect_mem_stats(*gpu);
    out.l1_rcache_hit_rate = gpu->rcache_l1_hit_rate();
    out.cycles_skipped = gpu->cycles_skipped();
    return leg;
}

void
add_counters(StatSet &c, std::uint64_t cycles, std::uint64_t cycles_skipped,
             std::uint64_t violations, const StatSet &rcache,
             const StatSet &bcu, const StatSet &mem, const StatSet &kernel)
{
    c.add("instructions", kernel.get("instructions"));
    c.add("cycles", cycles);
    c.add("cycles_skipped", cycles_skipped);
    c.add("transactions", kernel.get("transactions"));
    c.add("mem_ops", kernel.get("loads") + kernel.get("stores"));
    c.add("dram_retries", mem.get("hier.dram_retries"));
    c.add("dram_requests", mem.get("dram.requests"));
    c.add("dram_row_hits", mem.get("dram.row_hits"));
    c.add("dram_row_misses", mem.get("dram.row_misses"));
    c.add("l1_hits", mem.get("l1.hits"));
    c.add("l1_accesses", mem.get("l1.accesses"));
    c.add("l2_hits", mem.get("l2.hits"));
    c.add("l2_accesses", mem.get("l2.accesses"));
    c.add("l1_tlb_hits", mem.get("l1_tlb.hits"));
    c.add("l1_tlb_accesses", mem.get("l1_tlb.accesses"));
    c.add("page_walks", mem.get("hier.page_walks"));
    c.add("bcu_checks", bcu.get("checks"));
    c.add("rcache_l1_hits", rcache.get("l1_hits"));
    c.add("rcache_lookups", rcache.get("lookups"));
    c.add("rcache_refills", rcache.get("refills"));
    c.add("checks_covered", kernel.get("checks_covered"));
    c.add("cover_probe_fails", kernel.get("cover_probe_fails"));
    c.add("violations", violations);
}

obs::ProfileConfig
rollup_profile()
{
    obs::ProfileConfig cfg;
    cfg.workgroup_spans = false;
    cfg.counter_series = false;
    return cfg;
}

} // namespace perfbench
