#include "conform/fuzz.h"

#include <sstream>
#include <vector>

#include "common/rng.h"
#include "isa/builder.h"

namespace gpushield::conform {

namespace {

/** Distinct stream per (seed, plant) so clean and planted kernels of
 *  the same seed differ in structure, not just in the planted access. */
Rng
generator_rng(const FuzzKnobs &k)
{
    return Rng(k.seed * 2654435761u + (k.plant ? 0x9E37u : 0));
}

} // namespace

std::string
FuzzKnobs::repro(ShieldBackendKind backend, bool check_opt) const
{
    std::ostringstream os;
    os << "gpushield conformance --fuzz-one " << seed
       << (plant ? " --plant" : "") << " --steps " << steps << " --nbufs "
       << nbufs << " --ntid " << ntid << " --nctaid " << nctaid
       << " --backend " << to_string(backend)
       << (check_opt ? " --check-opt" : "");
    return os.str();
}

FuzzKnobs
resolve_knobs(FuzzKnobs knobs)
{
    Rng rng = generator_rng(knobs);
    const unsigned derived_nbufs = 1 + static_cast<unsigned>(rng.below(4));
    const unsigned derived_steps = 6 + static_cast<unsigned>(rng.below(14));
    if (knobs.nbufs == 0)
        knobs.nbufs = derived_nbufs;
    if (knobs.steps == 0)
        knobs.steps = derived_steps;
    return knobs;
}

KernelProgram
fuzz_kernel(const FuzzKnobs &knobs)
{
    Rng rng = generator_rng(knobs);
    rng.below(4);  // keep the stream aligned with resolve_knobs
    rng.below(14);

    KernelBuilder b("fuzz");
    std::vector<int> bufs;
    for (unsigned i = 0; i < knobs.nbufs; ++i)
        bufs.push_back(b.arg_ptr("buf" + std::to_string(i)));

    const int gid = b.sreg(SpecialReg::GlobalId);

    // Two pools keep the kernel race-free by construction: addr_pool
    // never contains loaded data (the written-slot set is
    // schedule-independent) and every store writes a pure function of
    // its own index (slot collisions all write the same value).
    std::vector<int> addr_pool = {gid, b.mov_imm(1),
                                  b.mov_imm(static_cast<std::int64_t>(
                                      rng.below(1000)))};
    std::vector<int> value_pool = addr_pool;

    const unsigned steps = knobs.steps;
    const unsigned oob_at =
        knobs.plant ? static_cast<unsigned>(rng.below(steps)) : steps + 1;

    auto random_addr_reg = [&] {
        return addr_pool[rng.below(addr_pool.size())];
    };
    auto random_value_reg = [&] {
        return value_pool[rng.below(value_pool.size())];
    };
    auto masked_index = [&](bool oob) {
        const int masked =
            b.alui(Op::And, random_addr_reg(),
                   static_cast<std::int64_t>(kFuzzElems - 1));
        return oob ? b.alui(Op::Add, masked,
                            static_cast<std::int64_t>(kFuzzElems))
                   : masked;
    };
    auto emit_store = [&](bool oob) {
        const int base = b.ldarg(bufs[rng.below(bufs.size())]);
        const int idx = masked_index(oob);
        // Alternate between Method B (full vaddr via GEP) and Method C
        // (base+offset); both write a pure function of the index.
        const int val = b.alui(Op::Add, idx, 17);
        if (rng.chance(0.3))
            b.st_bo(base, idx, 4, val);
        else
            b.st(b.gep(base, idx, 4), val, 4);
    };

    for (unsigned s = 0; s < steps; ++s) {
        const bool oob = s == oob_at;
        const std::size_t choice = rng.below(oob ? 3 : 8);
        if (oob && choice == 2) {
            // Planted loop: every iteration strays past the buffer end,
            // so a hoisted/widened/coalesced check that wrongly covers
            // the body shows up as a false negative on each trip.
            const unsigned trip = 1 + static_cast<unsigned>(rng.below(3));
            b.loop_n(trip, [&](int) { emit_store(true); });
            continue;
        }
        switch (choice) {
          case 0: { // load (data sinks into the value pool only)
            const int base = b.ldarg(bufs[rng.below(bufs.size())]);
            const int addr = b.gep(base, masked_index(oob), 4);
            const int v = b.ld(addr, 4);
            value_pool.push_back(b.alui(Op::And, v, 0xFFFF));
            break;
          }
          case 1: // store
            emit_store(oob);
            break;
          case 2: { // ALU over either pool
            static constexpr Op kOps[] = {Op::Add, Op::Sub, Op::Mul,
                                          Op::Min, Op::Max, Op::And,
                                          Op::Or,  Op::Xor};
            const Op op = kOps[rng.below(std::size(kOps))];
            if (rng.chance(0.5))
                addr_pool.push_back(
                    b.alu(op, random_addr_reg(), random_addr_reg()));
            else
                value_pool.push_back(
                    b.alu(op, random_value_reg(), random_value_reg()));
            break;
          }
          case 3: { // guarded region (uniform guard over the addr pool)
            const int p = b.setpi(Cmp::Lt, random_addr_reg(),
                                  static_cast<std::int64_t>(
                                      rng.below(2000)));
            b.if_then(p, rng.chance(0.5), [&] { emit_store(false); });
            break;
          }
          case 4: { // counted loop
            const unsigned trip = 1 + static_cast<unsigned>(rng.below(4));
            b.loop_n(trip, [&](int i) {
                addr_pool.push_back(
                    b.alu(Op::Add, random_addr_reg(), i));
            });
            break;
          }
          case 5: // scalar move
            addr_pool.push_back(b.mov_imm(
                static_cast<std::int64_t>(rng.below(1 << 20))));
            break;
          case 6: { // affine store loop (check-opt widening target)
            const int base = b.ldarg(bufs[rng.below(bufs.size())]);
            const int start = random_addr_reg();
            const unsigned trip = 1 + static_cast<unsigned>(rng.below(6));
            b.loop_n(trip, [&](int i) {
                const int slot = b.alui(
                    Op::And, b.alu(Op::Add, start, i),
                    static_cast<std::int64_t>(kFuzzElems - 1));
                b.st(b.gep(base, slot, 4), b.alui(Op::Add, slot, 17), 4);
            });
            break;
          }
          case 7: { // runtime-trip loop (bounded by masking the count)
            const int count =
                b.alui(Op::And, random_addr_reg(), 7);
            const int base = b.ldarg(bufs[rng.below(bufs.size())]);
            b.loop_count(count, [&](int i) {
                const int slot = b.alui(
                    Op::And, b.alu(Op::Add, i, i),
                    static_cast<std::int64_t>(kFuzzElems - 1));
                b.st(b.gep(base, slot, 4), b.alui(Op::Add, slot, 17), 4);
            });
            break;
          }
        }
        // Occasionally exercise both sides of an if/else divergence.
        if (!oob && rng.chance(0.15)) {
            const int p = b.setpi(Cmp::Lt, random_addr_reg(),
                                  static_cast<std::int64_t>(
                                      rng.below(1500)));
            b.if_then_else(
                p, [&] { emit_store(false); },
                [&] {
                    addr_pool.push_back(
                        b.alu(Op::Add, random_addr_reg(),
                              random_addr_reg()));
                });
        }
    }
    // Deterministic final write so runs always touch memory.
    const int base = b.ldarg(bufs[0]);
    const int idx =
        b.alui(Op::And, gid, static_cast<std::int64_t>(kFuzzElems - 1));
    b.st(b.gep(base, idx, 4), b.alui(Op::Add, idx, 17), 4);
    b.exit();
    return b.finish();
}

workloads::WorkloadInstance
fuzz_instance(Driver &driver, const KernelProgram &program,
              const FuzzKnobs &knobs)
{
    workloads::WorkloadInstance w;
    w.program = program;
    w.ntid = knobs.ntid;
    w.nctaid = knobs.nctaid;
    Rng data_rng(knobs.seed * 977 + 5);
    for (unsigned i = 0; i < knobs.nbufs; ++i) {
        w.buffers.push_back(driver.create_buffer(kFuzzElems * 4));
        std::vector<std::int32_t> data(kFuzzElems);
        for (auto &v : data)
            v = static_cast<std::int32_t>(data_rng.below(1 << 16));
        driver.upload(w.buffers.back(), data.data(), data.size() * 4);
    }
    return w;
}

} // namespace gpushield::conform
