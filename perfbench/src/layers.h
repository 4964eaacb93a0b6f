/**
 * @file
 * One simulated launch driven layer by layer from benchmark code, so a
 * traced pass can put a span around each public layer call, and the
 * exact counters every workload reports.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>

#include "bench.h"
#include "obs/profiler.h"
#include "workloads/runner.h"

namespace perfbench {

/** A launch's outcome plus what the static pass decided for it. */
struct Leg
{
    gpushield::workloads::RunOutcome out;
    std::uint64_t bat_rows = 0; //!< BAT rows of the launched program
    std::uint64_t bat_safe = 0; //!< rows proven in bounds (static cells)
};

/**
 * The steps of workloads::run_workload, in its order, each in its own
 * span: Gpu construction, Driver::launch, Gpu::launch + Gpu::run and
 * Driver::finish. A separate call of the static pass on the same
 * program is timed as "compiler.analyze" (Driver::launch runs the pass
 * again internally); it touches no driver state. The outcome equals
 * run_workload's for the same inputs.
 */
Leg run_leg(const gpushield::GpuConfig &cfg, gpushield::Driver &driver,
            const gpushield::workloads::WorkloadInstance &inst, bool shield,
            bool use_static, Tracer &tracer,
            gpushield::obs::HostEngineProfiler *engine_prof);

/**
 * Adds one launch's simulated counters to @p c under the short names
 * the per-layer metrics are derived from (see main.cc).
 */
void add_counters(gpushield::StatSet &c, std::uint64_t cycles,
                  std::uint64_t cycles_skipped, std::uint64_t violations,
                  const gpushield::StatSet &rcache,
                  const gpushield::StatSet &bcu,
                  const gpushield::StatSet &mem,
                  const gpushield::StatSet &kernel);

/** Profiler settings for profiled passes: only the stall roll-up is
 *  read, so no workgroup slices or counter series are recorded. */
gpushield::obs::ProfileConfig rollup_profile();

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
