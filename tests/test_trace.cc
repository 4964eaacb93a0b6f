/**
 * @file
 * Tests for the GT-Pin-style instrumentation layer: trace writing,
 * opcode/memory profiling, and address footprint profiling.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "driver/driver.h"
#include "sim/config.h"
#include "sim/gpu.h"
#include "trace/trace.h"
#include "workloads/kernels.h"
#include "workloads/suites.h"

namespace gpushield {
namespace {

using namespace workloads;

GpuConfig
small_config()
{
    GpuConfig cfg = nvidia_config();
    cfg.num_cores = 2;
    return cfg;
}

/** Runs vecadd with an observer attached; returns the kernel result. */
KernelResult
run_with_observer(IssueObserver *observer, std::uint32_t ntid = 64,
                  std::uint32_t nctaid = 2)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    PatternParams p;
    p.name = "vec";
    p.inputs = 2;
    p.inner_iters = 1;
    WorkloadInstance w;
    w.program = make_streaming(p);
    w.ntid = ntid;
    w.nctaid = nctaid;
    const std::uint64_t n = std::uint64_t{ntid} * nctaid;
    for (int i = 0; i < 3; ++i)
        w.buffers.push_back(driver.create_buffer(n * 4));

    Gpu gpu(small_config(), driver);
    gpu.set_observer(observer);
    const auto idx = gpu.launch(driver.launch(w.make_config(true, false)));
    gpu.run();
    return gpu.result(idx);
}

TEST(TraceWriter, OneRecordPerIssuedInstruction)
{
    std::ostringstream os;
    trace::TraceWriter writer(os);
    const KernelResult r = run_with_observer(&writer);
    EXPECT_EQ(writer.records(), r.stats.get("instructions"));

    // One line per record.
    std::uint64_t lines = 0;
    for (const char ch : os.str())
        lines += ch == '\n';
    EXPECT_EQ(lines, writer.records());
    // Memory records carry address ranges.
    EXPECT_NE(os.str().find(" ld [0x"), std::string::npos);
    EXPECT_NE(os.str().find(" st [0x"), std::string::npos);
}

TEST(TraceWriter, MaxLinesCapsOutputNotCounting)
{
    std::ostringstream os;
    trace::TraceWriter writer(os, /*max_lines=*/10);
    const KernelResult r = run_with_observer(&writer);
    std::uint64_t lines = 0;
    for (const char ch : os.str())
        lines += ch == '\n';
    EXPECT_EQ(lines, 10u);
    EXPECT_EQ(writer.records(), r.stats.get("instructions"));
}

TEST(OpProfiler, CountsMatchKernelStats)
{
    trace::OpProfiler profiler;
    const KernelResult r = run_with_observer(&profiler);
    EXPECT_EQ(profiler.total(), r.stats.get("instructions"));
    EXPECT_EQ(profiler.count(Op::Ld), r.stats.get("loads"));
    EXPECT_EQ(profiler.count(Op::St), r.stats.get("stores"));
    EXPECT_GT(profiler.ldst_fraction(), 0.1);
    EXPECT_LT(profiler.ldst_fraction(), 0.6);
    // vecadd is fully coalesced and non-divergent.
    EXPECT_DOUBLE_EQ(profiler.avg_active_lanes(), 32.0);
    EXPECT_DOUBLE_EQ(profiler.avg_mem_span_lines(), 1.0);
}

TEST(OpProfiler, StreamclusterIsLoadStoreHeavy)
{
    // §8.5 motivates streamcluster's MEMCHECK pathology with its high
    // load/store share (paper: 31.22% on the real binary).
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    const BenchmarkDef *def = nullptr;
    for (const BenchmarkDef &d : cuda_benchmarks())
        if (d.name == "streamcluster")
            def = &d;
    ASSERT_NE(def, nullptr);
    const WorkloadInstance w = def->make(driver);

    trace::OpProfiler profiler;
    Gpu gpu(small_config(), driver);
    gpu.set_observer(&profiler);
    gpu.launch(driver.launch(w.make_config(true, false)));
    gpu.run();
    EXPECT_GT(profiler.ldst_fraction(), 0.2);
}

TEST(AddressProfiler, CountsPagesPerInstruction)
{
    trace::AddressProfiler profiler(kPageSize4K);
    run_with_observer(&profiler, 256, 8); // 2048 threads x 4B = 2 pages
    EXPECT_GE(profiler.pages_touched(), 6u); // 3 buffers x 2 pages
    // Every memory pc touched at least one page.
    EXPECT_GT(profiler.pages_for_pc(/*pc of first ld*/ 4) +
                  profiler.pages_for_pc(5) + profiler.pages_for_pc(6) +
                  profiler.pages_for_pc(7) + profiler.pages_for_pc(8),
              0u);
}

TEST(Observer, DetachStopsCallbacks)
{
    GpuDevice dev(kPageSize2M);
    Driver driver(dev);
    PatternParams p;
    p.name = "vec";
    p.inputs = 1;
    WorkloadInstance w;
    w.program = make_streaming(p);
    w.ntid = 32;
    w.nctaid = 1;
    for (int i = 0; i < 2; ++i)
        w.buffers.push_back(driver.create_buffer(32 * 4));

    trace::OpProfiler profiler;
    Gpu gpu(small_config(), driver);
    gpu.set_observer(&profiler);
    gpu.set_observer(nullptr); // detach before running
    gpu.launch(driver.launch(w.make_config(true, false)));
    gpu.run();
    EXPECT_EQ(profiler.total(), 0u);
}

} // namespace
} // namespace gpushield
