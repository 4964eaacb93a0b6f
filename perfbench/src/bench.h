/**
 * @file
 * Shared pieces of the repository benchmark: the span tracer, the
 * per-pass result every workload returns, and the workload interface.
 *
 * A run executes one workload as a sequence of passes. Each pass builds
 * its own inputs (timed as set-up), then runs the workload's fixed list
 * of units (cells, launches or fuzz cells). Passes come in three modes:
 * plain (what the end-to-end metrics time), traced (spans around every
 * public layer call plus the host engine profiler) and profiled (the
 * stall-attribution profiler, which forces per-cycle stepping and so
 * runs on a subset of units only).
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"

namespace gpushield::obs {
class HostEngineProfiler;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** SplitMix64 finalizer: derives independent sub-seeds from one seed. */
inline std::uint64_t
mix(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/**
 * In-memory span recorder. Spans nest: a span opened while another is
 * open records it as its parent. When disabled, opening a span reads no
 * clock and records nothing.
 */
class Tracer
{
  public:
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_; //!< nullptr when tracing is off
        int index_ = -1;
    };

    /** Opens a span named @p name that closes when the scope ends. */
    Scope span(const char *name) { return Scope(enabled_ ? this : nullptr, name); }

    void set_enabled(bool on) { enabled_ = on; }

    /** Total seconds spent in spans named @p name. */
    double seconds(const std::string &name) const;

    /** Writes every span as a Chrome trace ("X" events). */
    bool write_chrome(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        Clock::time_point start;
        Clock::time_point end;
        int parent;
    };

    bool enabled_ = false;
    int open_ = -1;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

enum class Mode
{
    Plain,    //!< untraced: the end-to-end timing
    Traced,   //!< layer spans + host engine profiler
    Profiled, //!< stall-attribution profiler on the profiled subset
};

/** Everything one pass produced. */
struct PassResult
{
    double setup_s = 0.0;   //!< median Workload::setup() time before it
    std::vector<double> unit_ms;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; //!< first few reasons, for stderr
    /** Simulated work of the timed legs (for the simulated rates). */
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    /** Exact per-layer counters, summed over the pass's units. */
    gpushield::StatSet counters;
    /** Shielded over baseline simulated cycles, one per pair. */
    std::vector<double> shield_ratios;
    /** Host-speed reference times sampled between this pass's units. */
    std::vector<double> reference_s;
    /** The warm-up run before each group of samples, which brings the
     *  table back into the cache (stderr diagnostics only). */
    std::vector<double> reference_warmup_s;

    /**
     * Counts a unit that took @p ms; records @p why as a failure when
     * non-empty. Samples the host-speed reference 3 times after the
     * first unit and then after every 500 ms of unit time, each group
     * after one warm-up run, so callers must time a unit before calling
     * this and start the next one after it returns.
     */
    void unit(double ms, const std::string &why);

    /** Host seconds of the units (reference samples excluded). */
    double units_s() const;

    /** Measured seconds -> calibrated seconds for this pass. */
    double speed_factor() const;

  private:
    double ms_since_reference_ = 0.0;
};

/**
 * Host-speed reference. The host's speed drifts: on the 4-vCPU VM the
 * benchmark was defined on, the same pass took up to 45% longer a
 * minute later. This is a fixed computation (400k random updates over a
 * 16 MiB table on 4 KiB pages) on buffers mapped once, sharing no code
 * with the program. Each run first scrubs the caches, the TLB and the
 * allocator's free lists into a fixed state (untimed), so its time does
 * not depend on what the program left there. Of the references tried,
 * this one followed the program's own pass times most closely
 * (README.md). Host times are reported in calibrated seconds: measured
 * seconds scaled by (that VM's reference time / the pass's median
 * reference time) ^ 0.8 (PassResult::speed_factor).
 * @return the seconds the timed part of one run took.
 */
double reference_seconds();

/** Bytes of the reference's mapped buffers, resident from its first call
 *  on. The scrub's freed heap blocks stay with the allocator, which
 *  hands them to the program. */
std::size_t reference_bytes();

/** One benchmark workload (see README.md for why each exists). */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Builds the inputs of the next pass: specs, tables, the service
     * with its tenants and buffers, or the fuzz cells. Timed as set-up,
     * and called only after release().
     */
    virtual void setup() = 0;

    /** Frees what setup() built. Untimed, so no teardown is counted as
     *  set-up. */
    virtual void release() = 0;

    /**
     * Runs one pass over what setup() built, in @p mode. Every pass repeats the same units with
     * the same inputs; a unit whose simulated record or output differs
     * from its first plain repetition counts as failed. In traced mode,
     * layer calls are wrapped in @p tracer spans and @p engine_prof is
     * attached to every Gpu the benchmark itself constructs.
     */
    virtual PassResult run_pass(Mode mode, Tracer &tracer,
                                gpushield::obs::HostEngineProfiler *engine_prof) = 0;
};

/** Sweep-cell workloads over the CUDA corpus. */
std::unique_ptr<Workload> make_regular(std::uint64_t seed, unsigned limit);
std::unique_ptr<Workload> make_irregular(std::uint64_t seed, unsigned limit);
/** Three-tenant co-scheduled GpuService closed loop. */
std::unique_ptr<Workload> make_multitenant(std::uint64_t seed, unsigned limit);
/** Seeded fuzz cells through the conformance runner. */
std::unique_ptr<Workload> make_conform_fuzz(std::uint64_t seed, unsigned limit);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
