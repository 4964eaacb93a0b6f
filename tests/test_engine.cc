/**
 * @file
 * Event-driven engine tests.
 *
 * The engine (sim/gpu.cc) makes two promises this file pins down:
 * (1) clock jumps and attached observers are *invisible* — every
 * simulated result is byte-identical to the classic per-cycle engine —
 * and (2) the jumps actually happen (long DRAM stalls are
 * fast-forwarded, not scanned). Coverage:
 *
 *   - golden smoke grid byte-identical against tests/golden/smoke.jsonl
 *   - a no-op issue observer leaves a device-malloc kernel's cycles,
 *     stats and output bytes unchanged
 *   - DRAM-stall fast-forward regression: an engine with jumps skips
 *     cycles but matches the per-cycle engine (profiler-attached
 *     A/B) on every simulated stat
 *   - host-side engine profiler observes without changing results
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/executor.h"
#include "harness/suites.h"
#include "obs/engine_profile.h"
#include "obs/profiler.h"
#include "workloads/kernels.h"
#include "workloads/runner.h"
#include "workloads/suites.h"

namespace gpushield {
namespace {

std::string
read_file(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

const workloads::BenchmarkDef &
cuda_benchmark(const std::string &name)
{
    for (const workloads::BenchmarkDef &d : workloads::cuda_benchmarks())
        if (d.name == name)
            return d;
    throw std::runtime_error("no cuda benchmark " + name);
}

TEST(Engine, GoldenSmokeByteIdentical)
{
    const std::string golden = read_file(
        std::string(GPUSHIELD_SOURCE_DIR) + "/tests/golden/smoke.jsonl");
    ASSERT_FALSE(golden.empty()) << "missing tests/golden/smoke.jsonl";

    harness::SweepOptions opts;
    opts.jobs = 1;
    const harness::SweepResult result =
        harness::run_sweep(harness::smoke_suite(), opts);
    EXPECT_TRUE(result.all_ok());

    std::ostringstream os;
    result.metrics.write_jsonl(os);
    EXPECT_EQ(os.str(), golden) << "smoke records diverged from golden";
}

TEST(Engine, IssueObserverDoesNotChangeDeviceMallocRun)
{
    // No suite record exercises device malloc, so the golden files
    // cannot catch a change in its issue path. A no-op issue observer
    // must leave a heap-churning kernel's timing, stats and output
    // bytes exactly as they are without one.
    struct MallocCounter : IssueObserver
    {
        void
        on_issue(CoreId, KernelId, WarpId, int, const Instr &instr,
                 const MemOp *) override
        {
            if (instr.op == Op::Malloc)
                ++mallocs;
        }
        std::uint64_t mallocs = 0;
    };
    struct Outcome
    {
        KernelResult result;
        StatSet rcache, bcu, mem;
        std::vector<std::uint8_t> bytes;
    };

    constexpr std::uint32_t kThreads = 128, kGroups = 12;
    constexpr std::size_t kBytes = std::size_t{kThreads} * kGroups * 4;
    const auto run = [&](IssueObserver *observer) {
        GpuConfig cfg = nvidia_config();
        cfg.num_cores = 4;
        GpuDevice dev(cfg.mem.page_size);
        Driver driver(dev, 0x4EA9ull);
        workloads::PatternParams p;
        p.name = "heapk";
        workloads::WorkloadInstance w;
        w.program = workloads::make_heap(p);
        w.ntid = kThreads;
        w.nctaid = kGroups;
        w.buffers.push_back(driver.create_buffer(kBytes));
        w.scalars.assign(w.program.args.size(), 0);
        w.scalar_static.assign(w.program.args.size(), false);
        w.scalars.back() = 48; // bytes per thread allocation
        w.heap_bytes = 1 << 20;

        Gpu gpu(cfg, driver);
        gpu.set_observer(observer);
        const std::size_t idx =
            gpu.launch(driver.launch(w.make_config(/*shield=*/true,
                                                   /*use_static=*/false)));
        gpu.run();

        Outcome out;
        out.result = gpu.result(idx);
        out.rcache = gpu.rcache_stats();
        out.bcu = gpu.bcu_stats();
        out.mem = workloads::collect_mem_stats(gpu);
        driver.finish(gpu.launch_state(idx));
        out.bytes.resize(kBytes);
        driver.download(w.buffers[0], out.bytes.data(), kBytes);
        return out;
    };

    MallocCounter counter;
    const Outcome plain = run(nullptr);
    const Outcome observed = run(&counter);

    EXPECT_GT(counter.mallocs, 0u) << "kernel issued no device malloc";
    EXPECT_EQ(plain.result.stats.get("mallocs"),
              std::uint64_t{kThreads} * kGroups);
    EXPECT_FALSE(plain.result.aborted);
    EXPECT_EQ(observed.result.cycles(), plain.result.cycles());
    EXPECT_EQ(observed.result.aborted, plain.result.aborted);
    EXPECT_TRUE(observed.result.stats == plain.result.stats);
    EXPECT_TRUE(observed.rcache == plain.rcache);
    EXPECT_TRUE(observed.bcu == plain.bcu);
    EXPECT_TRUE(observed.mem == plain.mem);
    EXPECT_EQ(observed.bytes, plain.bytes);
}

TEST(Engine, DramStallFastForwardMatchesPerCycleEngine)
{
    // Crank DRAM into the multi-thousand-cycle range: under the old
    // per-cycle engine every one of those stall cycles was scanned;
    // the event-driven engine must jump them (cycles_skipped > 0)
    // without perturbing a single simulated stat. The per-cycle
    // reference comes from attaching the stall profiler, which forces
    // the classic visit-every-cycle engine but observes only.
    GpuConfig cfg = nvidia_config();
    cfg.num_cores = 2;
    cfg.mem.dram.row_hit_latency = 20000;
    cfg.mem.dram.row_miss_latency = 30000;

    const workloads::BenchmarkDef &def = cuda_benchmark("vectoradd");
    const auto run = [&](bool per_cycle) {
        GpuDevice dev(cfg.mem.page_size);
        Driver driver(dev, 0xD12A3ull);
        const workloads::WorkloadInstance inst = def.make(driver);
        obs::Profiler prof;
        return workloads::run_workload(cfg, driver, inst, /*shield=*/true,
                                       /*use_static=*/false, 0, 0,
                                       per_cycle ? &prof : nullptr);
    };

    const workloads::RunOutcome jumped = run(/*per_cycle=*/false);
    const workloads::RunOutcome scanned = run(/*per_cycle=*/true);

    EXPECT_GT(jumped.cycles_skipped, 0u)
        << "long DRAM stalls were scanned cycle-by-cycle, not jumped";
    EXPECT_EQ(scanned.cycles_skipped, 0u)
        << "profiler-attached engine must visit every cycle";

    EXPECT_EQ(jumped.result.cycles(), scanned.result.cycles());
    EXPECT_EQ(jumped.result.aborted, scanned.result.aborted);
    EXPECT_EQ(jumped.result.violations.size(),
              scanned.result.violations.size());
    EXPECT_TRUE(jumped.result.stats == scanned.result.stats);
    EXPECT_TRUE(jumped.rcache == scanned.rcache);
    EXPECT_TRUE(jumped.bcu == scanned.bcu);
    EXPECT_TRUE(jumped.mem == scanned.mem);
}

TEST(Engine, HostProfilerObservesWithoutChangingResults)
{
    const workloads::BenchmarkDef &def = cuda_benchmark("vectoradd");
    const auto run = [&](obs::HostEngineProfiler *prof) {
        GpuConfig cfg = nvidia_config();
        GpuDevice dev(cfg.mem.page_size);
        Driver driver(dev, 0xABCDull);
        const workloads::WorkloadInstance inst = def.make(driver);
        return workloads::run_workload(cfg, driver, inst, /*shield=*/true,
                                       /*use_static=*/false, 0, 0, nullptr,
                                       nullptr, prof);
    };

    obs::HostEngineProfiler prof;
    const workloads::RunOutcome observed = run(&prof);
    const workloads::RunOutcome plain = run(nullptr);

    EXPECT_EQ(observed.result.cycles(), plain.result.cycles());
    EXPECT_TRUE(observed.result.stats == plain.result.stats);
    EXPECT_EQ(observed.cycles_skipped, plain.cycles_skipped);

    EXPECT_GT(prof.cycles_simulated(), 0u);
    EXPECT_EQ(prof.cycles_skipped(), observed.cycles_skipped);
    EXPECT_GT(prof.ns(obs::HostEngineProfiler::Phase::Issue) +
                  prof.ns(obs::HostEngineProfiler::Phase::Events),
              0u);
    const std::string json = prof.json();
    EXPECT_NE(json.find("\"issue_ns\":"), std::string::npos);
    EXPECT_NE(json.find("\"cycles_simulated\":"), std::string::npos);
    EXPECT_FALSE(prof.report().empty());
}

} // namespace
} // namespace gpushield
