/**
 * @file
 * Seeded fuzz-kernel generator for the conformance runner.
 *
 * Same family of kernels as tests/test_fuzz.cc — random but well-formed
 * ALU dataflow, masked (in-bounds by construction) gathers/scatters,
 * guarded regions, divergence, counted loops — but with every shape
 * parameter exposed as an explicit knob so the minimizer can shrink a
 * failing case (fewer steps, fewer buffers, smaller grid) while the
 * seed keeps the surviving structure stable.
 */

#ifndef GPUSHIELD_CONFORM_FUZZ_H
#define GPUSHIELD_CONFORM_FUZZ_H

#include <cstdint>
#include <string>

#include "driver/driver.h"
#include "isa/ir.h"
#include "shield/config.h"
#include "workloads/suites.h"

namespace gpushield::conform {

/** Elements per fuzz buffer (power of two so indices mask cleanly). */
inline constexpr std::uint64_t kFuzzElems = 1024;

/** Shape of one fuzz kernel. Zero-valued steps/nbufs derive from the
 *  seed (resolve_knobs); all other fields are taken as-is. */
struct FuzzKnobs
{
    std::uint64_t seed = 0;
    unsigned steps = 0;        //!< generator steps (0 = 6 + rng.below(14))
    unsigned nbufs = 0;        //!< buffers (0 = 1 + rng.below(4))
    std::uint32_t ntid = 128;  //!< workgroup size
    std::uint32_t nctaid = 4;  //!< workgroups
    bool plant = false;        //!< plant exactly one out-of-bounds access

    /** CLI repro line for this exact kernel, run on @p backend with
     *  check-opt on or off as the failing run had it. */
    std::string repro(ShieldBackendKind backend, bool check_opt) const;
};

/** Fills derived fields (steps, nbufs) from the seed. Idempotent. */
FuzzKnobs resolve_knobs(FuzzKnobs knobs);

/** Generates the kernel for fully-resolved @p knobs. */
KernelProgram fuzz_kernel(const FuzzKnobs &knobs);

/** Binds buffers (seeded contents) and the launch shape. */
workloads::WorkloadInstance fuzz_instance(Driver &driver,
                                          const KernelProgram &program,
                                          const FuzzKnobs &knobs);

} // namespace gpushield::conform

#endif // GPUSHIELD_CONFORM_FUZZ_H
