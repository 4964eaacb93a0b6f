/**
 * @file
 * Named sweep suites: prebuilt SweepSpecs mirroring the paper's figures
 * plus a fast smoke grid, exposed to the gpushield sweep CLI and the
 * bench binaries.
 */

#ifndef GPUSHIELD_HARNESS_SUITES_H
#define GPUSHIELD_HARNESS_SUITES_H

#include <string>
#include <vector>

#include "harness/sweep.h"

namespace gpushield::harness {

/** Returns @p base with the given RCache latencies. */
GpuConfig with_rcache_latency(GpuConfig base, Cycle l1, Cycle l2);

/** Returns @p base with the given L1 RCache entry count. */
GpuConfig with_l1_entries(GpuConfig base, unsigned entries);

/** A registered suite. */
struct SuiteDef
{
    std::string name;
    std::string description;
    SweepSpec (*make)();
};

/** All registered suites. */
const std::vector<SuiteDef> &suites();

/** Finds a suite by name; nullptr when absent. */
const SuiteDef *find_suite(const std::string &name);

/** Seconds-scale grid exercising every cell shape (CI smoke runs). */
SweepSpec smoke_suite();

/** Fig. 14 grid: CUDA set × two RCache latencies × {base, shield}. */
SweepSpec fig14_suite();

/** Fig. 15 grid: RCache-sensitive CUDA set × L1 entry counts, shield. */
SweepSpec fig15_suite();

/** Fig. 18 grid: OpenCL pairs × {split, shared} × {base, shield}. */
SweepSpec fig18_suite();

} // namespace gpushield::harness

#endif // GPUSHIELD_HARNESS_SUITES_H
