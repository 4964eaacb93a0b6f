/**
 * @file
 * Corpus-wide tests: every named benchmark must build, validate, run to
 * completion under GPUShield without violations, and produce exactly
 * the same memory contents as an unprotected run (no false positives,
 * no functional interference). Parameterized over the benchmark sets.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <stdexcept>
#include <vector>

#include "driver/driver.h"
#include "sim/config.h"
#include "workloads/corpus.h"
#include "workloads/runner.h"
#include "workloads/suites.h"

namespace gpushield {
namespace {

using namespace workloads;

/** Downloads every buffer of @p inst into host vectors. */
std::vector<std::vector<std::uint8_t>>
snapshot_buffers(Driver &driver, const WorkloadInstance &inst)
{
    std::vector<std::vector<std::uint8_t>> out;
    for (const BufferHandle h : inst.buffers) {
        const VaRegion &r = driver.region(h);
        std::vector<std::uint8_t> bytes(r.size);
        driver.download(h, bytes.data(), bytes.size());
        out.push_back(std::move(bytes));
    }
    return out;
}

struct SetCase
{
    const char *set;
    std::string name;
};

class BenchmarkRuns : public ::testing::TestWithParam<SetCase>
{
  protected:
    static const BenchmarkDef &
    lookup(const SetCase &c)
    {
        const auto &set = std::string(c.set) == "cuda"
                              ? cuda_benchmarks()
                              : opencl_benchmarks();
        for (const BenchmarkDef &d : set)
            if (d.name == c.name)
                return d;
        throw std::runtime_error("missing benchmark " + c.name);
    }

    static GpuConfig
    config(const SetCase &c)
    {
        GpuConfig cfg = std::string(c.set) == "cuda" ? nvidia_config()
                                                     : intel_config();
        cfg.num_cores = 8; // keep the sweep fast; timing shape unchanged
        return cfg;
    }
};

TEST_P(BenchmarkRuns, CleanUnderShieldAndFunctionallyTransparent)
{
    const SetCase c = GetParam();
    const BenchmarkDef &def = lookup(c);
    const GpuConfig cfg = config(c);

    // Unprotected reference run.
    GpuDevice dev_ref(cfg.mem.page_size);
    Driver drv_ref(dev_ref);
    const WorkloadInstance ref_inst = def.make(drv_ref);
    const RunOutcome ref =
        run_workload(cfg, drv_ref, ref_inst, false, false);
    ASSERT_FALSE(ref.result.aborted);
    const auto ref_bufs = snapshot_buffers(drv_ref, ref_inst);

    // Shielded run (runtime checks only).
    GpuDevice dev_sh(cfg.mem.page_size);
    Driver drv_sh(dev_sh);
    const WorkloadInstance sh_inst = def.make(drv_sh);
    const RunOutcome sh = run_workload(cfg, drv_sh, sh_inst, true, false);
    EXPECT_FALSE(sh.result.aborted);
    EXPECT_TRUE(sh.result.violations.empty())
        << def.name << ": benign kernel flagged";
    const auto sh_bufs = snapshot_buffers(drv_sh, sh_inst);

    ASSERT_EQ(ref_bufs.size(), sh_bufs.size());
    for (std::size_t i = 0; i < ref_bufs.size(); ++i)
        EXPECT_EQ(ref_bufs[i], sh_bufs[i])
            << def.name << ": buffer " << i << " differs under shield";

    // Shielded + static analysis must also be transparent.
    GpuDevice dev_st(cfg.mem.page_size);
    Driver drv_st(dev_st);
    const WorkloadInstance st_inst = def.make(drv_st);
    const RunOutcome st = run_workload(cfg, drv_st, st_inst, true, true);
    EXPECT_TRUE(st.result.violations.empty());
    const auto st_bufs = snapshot_buffers(drv_st, st_inst);
    for (std::size_t i = 0; i < ref_bufs.size(); ++i)
        EXPECT_EQ(ref_bufs[i], st_bufs[i])
            << def.name << ": buffer " << i << " differs under +static";
}

std::vector<SetCase>
all_cases()
{
    std::vector<SetCase> cases;
    for (const BenchmarkDef &d : workloads::cuda_benchmarks())
        cases.push_back(SetCase{"cuda", d.name});
    for (const BenchmarkDef &d : workloads::opencl_benchmarks())
        cases.push_back(SetCase{"opencl", d.name});
    return cases;
}

std::string
case_name(const ::testing::TestParamInfo<SetCase> &info)
{
    std::string n = std::string(info.param.set) + "_" + info.param.name;
    for (char &ch : n)
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    return n;
}

INSTANTIATE_TEST_SUITE_P(Corpus, BenchmarkRuns,
                         ::testing::ValuesIn(all_cases()), case_name);

// --- Corpus characterization (Figs. 1 and 11) -------------------------

TEST(Corpus, Fig1AggregatesMatchPaper)
{
    const CorpusStats stats = corpus_stats();
    EXPECT_EQ(stats.benchmarks, 145u);
    EXPECT_EQ(stats.max_buffers, 34u);
    EXPECT_NEAR(stats.avg_buffers, 6.5, 0.05);
    EXPECT_NEAR(stats.fraction_under5, 0.559, 0.005);
    // "only five use more than 20"
    std::size_t over20 = 0;
    for (const CorpusRecord &r : corpus())
        over20 += r.num_buffers >= 20;
    EXPECT_EQ(over20, 5u);
    // 13 suites
    std::set<std::string> suites;
    for (const CorpusRecord &r : corpus())
        suites.insert(r.suite);
    EXPECT_EQ(suites.size(), 13u);
}

TEST(Corpus, Fig11FootprintMatchesPaper)
{
    EXPECT_NEAR(rodinia_avg_pages_per_buffer(), 1425.0, 75.0);
    EXPECT_EQ(rodinia_footprints().size(), 20u);
}

TEST(Corpus, SimulatedKernelsUseFewBuffersLikeFig1)
{
    // The simulated subset must be consistent with the corpus story:
    // few buffers per kernel, bounded by the Fig. 1 maximum.
    unsigned max_buffers = 0;
    for (const BenchmarkDef &d : cuda_benchmarks()) {
        GpuDevice dev(kPageSize2M);
        Driver drv(dev);
        const WorkloadInstance inst = d.make(drv);
        unsigned ptrs = 0;
        for (const KernelArgSpec &a : inst.program.args)
            ptrs += a.is_pointer;
        EXPECT_GE(ptrs, 1u) << d.name;
        EXPECT_LE(ptrs, 34u) << d.name;
        max_buffers = std::max(max_buffers, ptrs);
    }
    EXPECT_GE(max_buffers, 9u); // the multibuffer kernels
}

TEST(Corpus, FindBenchmarkLookup)
{
    EXPECT_NE(find_benchmark("streamcluster"), nullptr);
    EXPECT_NE(find_benchmark("GEMM"), nullptr);
    EXPECT_EQ(find_benchmark("not-a-benchmark"), nullptr);
    // A set-qualified name picks that set's definition.
    ASSERT_NE(find_benchmark("hotspot", "fig19"), nullptr);
    EXPECT_EQ(find_benchmark("hotspot", "fig19")->category, "fig19");
    EXPECT_NE(find_benchmark("hotspot", "fig19"), find_benchmark("hotspot"));
    EXPECT_EQ(find_benchmark("GEMM", "cuda"), nullptr);
    EXPECT_EQ(find_benchmark("GEMM", "no-such-set"), nullptr);
    // A fig19-only name is found without a set.
    EXPECT_NE(find_benchmark("lud"), nullptr);
}

TEST(Corpus, SetSizesMatchPaper)
{
    unsigned sensitive = 0;
    for (const BenchmarkDef &d : cuda_benchmarks())
        sensitive += d.rcache_sensitive;
    EXPECT_EQ(sensitive, 17u); // the Fig. 15 set
    EXPECT_EQ(cuda_benchmarks().size(), 88u);   // "88 CUDA benchmarks"
    EXPECT_EQ(opencl_benchmarks().size(), 17u); // the Fig. 16 set
    EXPECT_EQ(rodinia_fig19_benchmarks().size(), 9u);

    // Names are unique within each set.
    std::set<std::string> names;
    for (const BenchmarkDef &d : cuda_benchmarks())
        EXPECT_TRUE(names.insert(d.name).second) << d.name;
}

} // namespace
} // namespace gpushield
