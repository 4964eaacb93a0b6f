#include "compiler/static_analysis.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/log.h"

namespace gpushield {

namespace {

// Saturation bound keeping interval arithmetic overflow-free.
constexpr std::int64_t kSat = std::int64_t{1} << 62;

std::int64_t
sat(std::int64_t v)
{
    return std::clamp(v, -kSat, kSat);
}

std::int64_t
sat_add(std::int64_t a, std::int64_t b)
{
    return sat(sat(a) + sat(b));
}

std::int64_t
sat_mul(std::int64_t a, std::int64_t b)
{
    const double approx = static_cast<double>(a) * static_cast<double>(b);
    if (approx > static_cast<double>(kSat) ||
        approx < -static_cast<double>(kSat))
        return approx > 0 ? kSat : -kSat;
    return a * b;
}

/** Abstract value: unknown, integer interval, or pointer + offset interval. */
struct AbsVal
{
    enum class Kind : std::uint8_t { Top, Range, Ptr };

    Kind kind = Kind::Top;
    std::int64_t lo = 0, hi = 0; //!< Range
    BaseRef base;                //!< Ptr
    std::int64_t plo = 0, phi = 0;

    static AbsVal
    top()
    {
        return {};
    }

    static AbsVal
    range(std::int64_t lo, std::int64_t hi)
    {
        AbsVal v;
        v.kind = Kind::Range;
        v.lo = sat(lo);
        v.hi = sat(hi);
        return v;
    }

    static AbsVal
    constant(std::int64_t c)
    {
        return range(c, c);
    }

    static AbsVal
    pointer(BaseRef base)
    {
        AbsVal v;
        v.kind = Kind::Ptr;
        v.base = base;
        return v;
    }

    bool is_const() const { return kind == Kind::Range && lo == hi; }
};

AbsVal
abs_add(const AbsVal &a, const AbsVal &b)
{
    if (a.kind == AbsVal::Kind::Ptr && b.kind == AbsVal::Kind::Range) {
        AbsVal v = a;
        v.plo = sat_add(a.plo, b.lo);
        v.phi = sat_add(a.phi, b.hi);
        return v;
    }
    if (b.kind == AbsVal::Kind::Ptr && a.kind == AbsVal::Kind::Range)
        return abs_add(b, a);
    if (a.kind == AbsVal::Kind::Range && b.kind == AbsVal::Kind::Range)
        return AbsVal::range(sat_add(a.lo, b.lo), sat_add(a.hi, b.hi));
    // Pointer plus an unknown value: the base is still identified
    // (Fig. 5's "tid + ?" row) but the offset range is unbounded.
    if (a.kind == AbsVal::Kind::Ptr || b.kind == AbsVal::Kind::Ptr) {
        AbsVal v = a.kind == AbsVal::Kind::Ptr ? a : b;
        v.plo = -kSat;
        v.phi = kSat;
        return v;
    }
    return AbsVal::top();
}

AbsVal
abs_sub(const AbsVal &a, const AbsVal &b)
{
    if (a.kind == AbsVal::Kind::Ptr && b.kind == AbsVal::Kind::Range) {
        AbsVal v = a;
        v.plo = sat_add(a.plo, -b.hi);
        v.phi = sat_add(a.phi, -b.lo);
        return v;
    }
    if (a.kind == AbsVal::Kind::Range && b.kind == AbsVal::Kind::Range)
        return AbsVal::range(sat_add(a.lo, -b.hi), sat_add(a.hi, -b.lo));
    return AbsVal::top();
}

AbsVal
abs_mul(const AbsVal &a, const AbsVal &b)
{
    if (a.kind != AbsVal::Kind::Range || b.kind != AbsVal::Kind::Range)
        return AbsVal::top();
    const std::int64_t c[4] = {sat_mul(a.lo, b.lo), sat_mul(a.lo, b.hi),
                               sat_mul(a.hi, b.lo), sat_mul(a.hi, b.hi)};
    return AbsVal::range(*std::min_element(c, c + 4),
                         *std::max_element(c, c + 4));
}

AbsVal
abs_minmax(const AbsVal &a, const AbsVal &b, bool take_min)
{
    if (a.kind != AbsVal::Kind::Range || b.kind != AbsVal::Kind::Range)
        return AbsVal::top();
    if (take_min)
        return AbsVal::range(std::min(a.lo, b.lo), std::min(a.hi, b.hi));
    return AbsVal::range(std::max(a.lo, b.lo), std::max(a.hi, b.hi));
}

/** Range refinement applied inside an if/loop guarded region.
 *
 *  All four signed comparison shapes refine; the ISA has no unsigned
 *  compares (Cmp is Eq/Ne/Lt/Le/Gt/Ge over int64 lanes), so there is
 *  no `x <u bound` guard to mishandle — if unsigned compares are ever
 *  added, they must NOT reuse these kinds: `x <u n` says nothing
 *  about a negative x under this signed lattice. */
struct Refinement
{
    enum class Kind : std::uint8_t {
        UpperExclusive, //!< x < bound holds in the region
        UpperInclusive, //!< x <= bound
        LowerInclusive, //!< x >= bound
        LowerExclusive, //!< x > bound
    };
    int reg = kNoReg;
    Kind kind = Kind::UpperExclusive;
    std::int64_t bound = 0;
    int start_pc = 0; //!< the guarding branch: valid for pc > start_pc
    int end_pc = 0;   //!< refinement valid for pc in (start_pc, end_pc)
};

/** A backward-branch region [head, end] (end = the backedge pc). Its carried registers' value on
 *  iterations >= 2 is not the straight-line one, so every linear walk
 *  poisons them to Top at the head. */
struct LoopRegion : BackwardRegion
{
    /** Canonical counted-loop shape (setp.lt i, bound ; bra head). */
    int ivar = kNoReg;
    int setp_pc = -1;
    int bound_reg = kNoReg;
    std::int64_t bound_imm = 0;
    bool resolved = false;
    std::int64_t trip_hi = 0; //!< i in [0, trip_hi - 1] inside the loop
};

/** The full analysis state. */
class Analyzer
{
  public:
    Analyzer(const KernelProgram &prog, const StaticLaunchInfo &info)
        : prog_(prog), info_(info), regs_(prog.num_regs)
    {
    }

    BoundsAnalysisTable run();

  private:
    /** Loop-scoped induction range: the trip range holds only for pcs
     *  inside [head, end]; after the loop the register equals the exit
     *  value (bound, or 0 when the loop never entered). */
    struct InductionScope
    {
        AbsVal in_loop;
        AbsVal after;
        int head = 0;
        int end = 0;
    };

    AbsVal eval_src(const Instr &in, int pc) const; //!< rb-or-imm operand
    AbsVal read_reg(int r, int pc) const;
    AbsVal sreg_value(SpecialReg s) const;
    void eval_pre(std::vector<AbsVal> &pre, const Instr &in) const;
    void find_loops();
    void find_guards();
    void poison_carried(std::vector<AbsVal> &vals, int pc) const;
    void record_access(int pc, const Instr &in);
    void assign_pointer_types(BoundsAnalysisTable &bat) const;
    std::uint64_t buffer_size_of(const BaseRef &ref) const;

    const KernelProgram &prog_;
    const StaticLaunchInfo &info_;
    std::vector<AbsVal> regs_;
    std::vector<LoopRegion> loops_;
    std::map<int, InductionScope> induction_; //!< reg -> scoped range
    std::vector<Refinement> guards_;
    BoundsAnalysisTable bat_;
};

AbsVal
Analyzer::sreg_value(SpecialReg s) const
{
    const std::int64_t ntid = info_.ntid;
    const std::int64_t nctaid = info_.nctaid;
    switch (s) {
      case SpecialReg::TidX:
        return ntid > 0 ? AbsVal::range(0, ntid - 1) : AbsVal::top();
      case SpecialReg::CtaIdX:
        return nctaid > 0 ? AbsVal::range(0, nctaid - 1) : AbsVal::top();
      case SpecialReg::NTidX:
        return ntid > 0 ? AbsVal::constant(ntid) : AbsVal::top();
      case SpecialReg::NCtaIdX:
        return nctaid > 0 ? AbsVal::constant(nctaid) : AbsVal::top();
      case SpecialReg::GlobalId:
        return (ntid > 0 && nctaid > 0)
                   ? AbsVal::range(0, ntid * nctaid - 1)
                   : AbsVal::top();
      case SpecialReg::NThreads:
        return (ntid > 0 && nctaid > 0) ? AbsVal::constant(ntid * nctaid)
                                        : AbsVal::top();
      case SpecialReg::LaneId:
        return AbsVal::range(0, kWarpSize - 1);
    }
    return AbsVal::top();
}

AbsVal
Analyzer::read_reg(int r, int pc) const
{
    if (r == kNoReg)
        return AbsVal::top();
    AbsVal v = regs_[r];
    const auto it = induction_.find(r);
    if (it != induction_.end() && pc >= it->second.head &&
        pc <= it->second.end)
        v = it->second.in_loop;
    // Guard refinement: inside `if (r cmp bound)` regions, clamp the
    // range (§6.4 patterns: both upper and lower guards). The
    // refinement only holds strictly between the guarding branch and
    // the reconvergence point.
    for (const Refinement &g : guards_) {
        if (g.reg != r || pc <= g.start_pc || pc >= g.end_pc ||
            v.kind != AbsVal::Kind::Range)
            continue;
        switch (g.kind) {
          case Refinement::Kind::UpperExclusive:
            v.hi = std::min(v.hi, g.bound - 1);
            break;
          case Refinement::Kind::UpperInclusive:
            v.hi = std::min(v.hi, g.bound);
            break;
          case Refinement::Kind::LowerInclusive:
            v.lo = std::max(v.lo, g.bound);
            break;
          case Refinement::Kind::LowerExclusive:
            v.lo = std::max(v.lo, g.bound + 1);
            break;
        }
    }
    return v;
}

AbsVal
Analyzer::eval_src(const Instr &in, int pc) const
{
    // Second operand of two-source ALU ops: register or immediate.
    // Goes through read_reg so induction scoping and guard refinements
    // apply to the rb operand too.
    return in.rb != kNoReg ? read_reg(in.rb, pc) : AbsVal::constant(in.imm);
}

/**
 * Evaluates a simple bound expression for loop/guard analysis: an
 * immediate, or a register whose current abstract value is known.
 */
namespace {
std::optional<std::int64_t>
upper_of(const AbsVal &v)
{
    if (v.kind == AbsVal::Kind::Range)
        return v.hi;
    return std::nullopt;
}
} // namespace

void
Analyzer::eval_pre(std::vector<AbsVal> &pre, const Instr &in) const
{
    // Straight-line abstract evaluation used to resolve loop/guard
    // bounds held in registers (constants, known scalars, special
    // registers, and simple arithmetic over them). Setp writes a
    // predicate whose index aliases general-register numbers: treating
    // it as a register write would clobber an unrelated value.
    if (in.rd == kNoReg || dest_reg(in) == kNoReg)
        return;
    const auto src2_of = [&](const Instr &i) {
        return i.rb != kNoReg ? pre[i.rb] : AbsVal::constant(i.imm);
    };
    switch (in.op) {
      case Op::Mov:
        pre[in.rd] = in.ra != kNoReg ? pre[in.ra] : AbsVal::constant(in.imm);
        break;
      case Op::Sreg:
        pre[in.rd] = sreg_value(in.sreg);
        break;
      case Op::Ldarg: {
        const auto &spec = prog_.args[in.arg_index];
        if (!spec.is_pointer &&
            static_cast<std::size_t>(in.arg_index) <
                info_.scalar_values.size() &&
            info_.scalar_values[in.arg_index]) {
            pre[in.rd] =
                AbsVal::constant(*info_.scalar_values[in.arg_index]);
        } else {
            pre[in.rd] = AbsVal::top();
        }
        break;
      }
      case Op::Add:
        pre[in.rd] = abs_add(pre[in.ra], src2_of(in));
        break;
      case Op::Sub:
        pre[in.rd] = abs_sub(pre[in.ra], src2_of(in));
        break;
      case Op::Mul:
        pre[in.rd] = abs_mul(pre[in.ra], src2_of(in));
        break;
      case Op::Min:
        pre[in.rd] = abs_minmax(pre[in.ra], src2_of(in), true);
        break;
      case Op::Max:
        pre[in.rd] = abs_minmax(pre[in.ra], src2_of(in), false);
        break;
      case Op::Shr: {
        const AbsVal a = pre[in.ra];
        const AbsVal s = src2_of(in);
        if (a.kind == AbsVal::Kind::Range && s.is_const() && a.lo >= 0 &&
            s.lo >= 0 && s.lo < 63)
            pre[in.rd] = AbsVal::range(a.lo >> s.lo, a.hi >> s.lo);
        else
            pre[in.rd] = AbsVal::top();
        break;
      }
      default:
        pre[in.rd] = AbsVal::top();
        break;
    }
}

void
Analyzer::poison_carried(std::vector<AbsVal> &vals, int pc) const
{
    // At a loop head the straight-line value of a loop-carried register
    // only describes the first iteration; later iterations may hold
    // anything, so every linear walk forgets them here.
    for (const LoopRegion &loop : loops_)
        if (loop.head == pc)
            for (const int r : loop.carried)
                vals[r] = AbsVal::top();
}

void
Analyzer::find_loops()
{
    // Pass 1 (syntactic): every backward branch closes a region; the
    // canonical counted shape additionally names an induction variable
    // (setp.lt p, i, bound ; bra p, head).
    for (BackwardRegion &region : backward_regions(prog_)) {
        LoopRegion loop;
        static_cast<BackwardRegion &>(loop) = std::move(region);
        const Instr &bra = prog_.code[loop.end];
        if (bra.pred != kNoReg) {
            for (int q = loop.end; q-- > 0;) {
                const Instr &setp = prog_.code[q];
                if (setp.op != Op::Setp || setp.rd != bra.pred)
                    continue;
                if (setp.cmp == Cmp::Lt && !bra.neg_pred) {
                    loop.ivar = setp.ra;
                    loop.setp_pc = q;
                    loop.bound_reg = setp.rb;
                    loop.bound_imm = setp.imm;
                }
                break;
            }
        }
        loops_.push_back(std::move(loop));
    }

    // Pass 2: resolve counted-loop trip bounds with a straight-line
    // walk that snapshots the bound *at the defining setp* (a bound
    // register rewritten later must not leak its new value into the
    // loop) and forgets loop-carried registers at every head.
    std::vector<AbsVal> pre(prog_.num_regs);
    for (std::size_t pc = 0; pc < prog_.code.size(); ++pc) {
        poison_carried(pre, static_cast<int>(pc));
        for (LoopRegion &loop : loops_) {
            if (loop.setp_pc != static_cast<int>(pc) || loop.resolved)
                continue;
            const AbsVal bound = loop.bound_reg != kNoReg
                                     ? pre[loop.bound_reg]
                                     : AbsVal::constant(loop.bound_imm);
            if (const auto hi = upper_of(bound)) {
                if (*hi >= 1) {
                    loop.resolved = true;
                    loop.trip_hi = *hi;
                }
            }
        }
        eval_pre(pre, prog_.code[pc]);
    }

    for (const LoopRegion &loop : loops_) {
        if (!loop.resolved || loop.ivar == kNoReg)
            continue;
        InductionScope scope;
        scope.in_loop = AbsVal::range(0, loop.trip_hi - 1);
        // Exit value: the bound when the loop ran, 0 when it never
        // entered — either way within [0, trip_hi].
        scope.after = AbsVal::range(0, loop.trip_hi);
        scope.head = loop.head;
        scope.end = loop.end;
        induction_[loop.ivar] = scope;
    }
}

void
Analyzer::find_guards()
{
    // Builder's if_then shape: ssy END ; bra.not p, END with
    // p = setp.cmp x, bound — inside (bra, END) the predicate holds.
    //
    // The bound is snapshotted *at the setp*: a bound register
    // rewritten between the compare and a guarded access must not
    // retroactively change what the guard proved. A refinement is
    // dropped entirely when the guarded register is reassigned inside
    // the region (the compare said nothing about the new value), or
    // when a backedge re-enters the region without re-evaluating the
    // guard.
    struct SetpSnap
    {
        int reg = kNoReg;
        Cmp cmp = Cmp::Eq;
        AbsVal bound;
        int pc = -1;
    };
    std::vector<SetpSnap> setps(
        static_cast<std::size_t>(std::max(prog_.num_preds, 1)));

    std::vector<AbsVal> pre(prog_.num_regs);
    for (std::size_t pc = 0; pc < prog_.code.size(); ++pc) {
        poison_carried(pre, static_cast<int>(pc));
        const Instr &in = prog_.code[pc];
        if (in.op == Op::Setp && in.rd >= 0 &&
            static_cast<std::size_t>(in.rd) < setps.size()) {
            SetpSnap &snap = setps[static_cast<std::size_t>(in.rd)];
            snap.reg = in.ra;
            snap.cmp = in.cmp;
            snap.bound = in.rb != kNoReg ? pre[in.rb]
                                         : AbsVal::constant(in.imm);
            snap.pc = static_cast<int>(pc);
        }
        eval_pre(pre, in);
        if (in.op != Op::Bra || in.pred == kNoReg || !in.neg_pred ||
            in.target <= static_cast<int>(pc))
            continue;
        if (in.pred < 0 || static_cast<std::size_t>(in.pred) >= setps.size())
            continue;
        const SetpSnap &snap = setps[static_cast<std::size_t>(in.pred)];
        if (snap.pc < 0 || snap.reg == kNoReg)
            continue;

        Refinement g;
        g.reg = snap.reg;
        g.start_pc = static_cast<int>(pc);
        g.end_pc = in.target;
        bool usable = snap.bound.kind == AbsVal::Kind::Range;
        switch (snap.cmp) {
          case Cmp::Lt:
            // Upper bounds need the bound's max; lower bounds its min.
            g.kind = Refinement::Kind::UpperExclusive;
            g.bound = snap.bound.hi;
            break;
          case Cmp::Le:
            g.kind = Refinement::Kind::UpperInclusive;
            g.bound = snap.bound.hi;
            break;
          case Cmp::Ge:
            g.kind = Refinement::Kind::LowerInclusive;
            g.bound = snap.bound.lo;
            break;
          case Cmp::Gt:
            g.kind = Refinement::Kind::LowerExclusive;
            g.bound = snap.bound.lo;
            break;
          default:
            usable = false;
            break;
        }
        // Invalidation 1: the guarded register is reassigned after the
        // compare but before the region ends.
        for (int q = snap.pc + 1; usable && q < g.end_pc; ++q) {
            if (q < static_cast<int>(prog_.code.size()) &&
                dest_reg(prog_.code[q]) == g.reg)
                usable = false;
        }
        // Invalidation 2: a loop head strictly inside the region lets
        // execution re-enter past the guard without re-evaluating it.
        for (const LoopRegion &loop : loops_) {
            if (loop.head > snap.pc && loop.head < g.end_pc &&
                (loop.end > g.end_pc || loop.end <= snap.pc))
                usable = false;
        }
        if (usable)
            guards_.push_back(g);
    }
}

std::uint64_t
Analyzer::buffer_size_of(const BaseRef &ref) const
{
    switch (ref.kind) {
      case BaseKind::Arg:
        if (ref.index >= 0 &&
            static_cast<std::size_t>(ref.index) <
                info_.arg_buffer_sizes.size())
            return info_.arg_buffer_sizes[ref.index];
        return 0;
      case BaseKind::Local: {
        if (ref.index < 0 ||
            static_cast<std::size_t>(ref.index) >= prog_.locals.size())
            return 0;
        const LocalVarSpec &lv = prog_.locals[ref.index];
        const std::uint64_t threads =
            static_cast<std::uint64_t>(info_.ntid) * info_.nctaid;
        // elem_size and elems are 32-bit, so their product fits in 64
        // bits; the per-thread scale-up can wrap. A wrapped size would
        // be compared against real offsets and can certify an
        // out-of-bounds access as InBounds, so reject it (size 0 ⇒
        // Unknown verdict ⇒ runtime-checked), mirroring the driver's
        // launch-time >32-bit rejection.
        const std::uint64_t per_thread =
            static_cast<std::uint64_t>(lv.elem_size) * lv.elems;
        const std::uint64_t total = per_thread * threads;
        if (per_thread != 0 && threads != 0 && total / per_thread != threads)
            return 0;
        return total;
      }
      default:
        return 0; // heap size unknown at compile time
    }
}

void
Analyzer::record_access(int pc, const Instr &in)
{
    BatEntry entry;
    entry.pc = pc;
    entry.is_store = in.op == Op::St;
    entry.base_offset_mode = in.base_offset;

    AbsVal addr;
    if (in.base_offset) {
        AbsVal base;
        if (in.bt_index >= 0) {
            // Method A: the bt-th pointer argument, in argument order.
            int seen = 0;
            for (std::size_t a = 0; a < prog_.args.size(); ++a) {
                if (!prog_.args[a].is_pointer)
                    continue;
                if (seen++ == in.bt_index) {
                    base = AbsVal::pointer(
                        BaseRef{BaseKind::Arg, static_cast<int>(a)});
                    break;
                }
            }
        } else {
            base = read_reg(in.ra, pc);
        }
        const AbsVal idx = read_reg(in.rb, pc);
        const AbsVal scaled =
            abs_mul(idx, AbsVal::constant(static_cast<std::int64_t>(in.scale)));
        addr = abs_add(abs_add(base, scaled), AbsVal::constant(in.disp));
    } else {
        addr = read_reg(in.ra, pc);
    }

    if (addr.kind == AbsVal::Kind::Ptr) {
        entry.base = addr.base;
        entry.offsets_known = addr.plo > -kSat && addr.phi < kSat;
        entry.off_lo = addr.plo;
        entry.off_end = sat_add(addr.phi, in.size);

        // Stores to read-only buffers must never lose their runtime
        // check: bounds-proving says nothing about writability.
        const bool ro_store =
            entry.is_store && addr.base.kind == BaseKind::Arg &&
            addr.base.index >= 0 &&
            static_cast<std::size_t>(addr.base.index) <
                info_.arg_buffer_readonly.size() &&
            info_.arg_buffer_readonly[addr.base.index];

        const std::uint64_t buf_size = buffer_size_of(addr.base);
        if (buf_size > 0 && entry.offsets_known && !ro_store) {
            const auto sz = static_cast<std::int64_t>(buf_size);
            if (entry.off_lo >= 0 && entry.off_end <= sz) {
                entry.verdict = Verdict::InBounds;
            } else if (entry.off_lo >= sz || entry.off_end <= 0) {
                // Every possible access escapes the buffer: report the
                // overflow at compile time (Fig. 5's B[tid + 1<<32]).
                entry.verdict = Verdict::OutOfBounds;
            }
        }
    }
    bat_.entries.push_back(entry);
}

void
Analyzer::assign_pointer_types(BoundsAnalysisTable &bat) const
{
    struct Summary
    {
        bool any = false;
        bool all_safe = true;
        bool all_base_offset = true;
    };
    std::map<BaseRef, Summary> by_base;
    for (const BatEntry &e : bat.entries) {
        if (e.base.kind == BaseKind::Unknown)
            continue;
        Summary &s = by_base[e.base];
        s.any = true;
        s.all_safe &= e.verdict == Verdict::InBounds;
        s.all_base_offset &= e.base_offset_mode;
    }

    // Every declared pointer base gets a type; untouched ones default to
    // Type 2 (the conservative choice — their pointer may escape).
    for (std::size_t a = 0; a < prog_.args.size(); ++a) {
        if (!prog_.args[a].is_pointer)
            continue;
        const BaseRef ref{BaseKind::Arg, static_cast<int>(a)};
        bat.pointer_types[ref] = PtrTypeRec::TaggedId;
    }
    for (std::size_t l = 0; l < prog_.locals.size(); ++l)
        bat.pointer_types[BaseRef{BaseKind::Local, static_cast<int>(l)}] =
            PtrTypeRec::TaggedId;

    for (const auto &[ref, s] : by_base) {
        if (!s.any)
            continue;
        if (s.all_safe) {
            bat.pointer_types[ref] = PtrTypeRec::Unprotected;
        } else if (s.all_base_offset && ref.kind == BaseKind::Arg &&
                   ref.index >= 0 &&
                   static_cast<std::size_t>(ref.index) <
                       info_.arg_buffer_pow2.size() &&
                   info_.arg_buffer_pow2[ref.index]) {
            bat.pointer_types[ref] = PtrTypeRec::SizedWindow;
        } else {
            bat.pointer_types[ref] = PtrTypeRec::TaggedId;
        }
    }
    // The heap region is always runtime-checked.
    bat.pointer_types[BaseRef{BaseKind::Heap, -1}] = PtrTypeRec::TaggedId;
}

BoundsAnalysisTable
Analyzer::run()
{
    find_loops();
    find_guards();

    for (std::size_t pc = 0; pc < prog_.code.size(); ++pc) {
        const Instr &in = prog_.code[pc];
        const int ipc = static_cast<int>(pc);
        poison_carried(regs_, ipc);
        switch (in.op) {
          case Op::Mov:
            regs_[in.rd] = in.ra != kNoReg ? read_reg(in.ra, ipc)
                                           : AbsVal::constant(in.imm);
            break;
          case Op::Add:
            regs_[in.rd] = abs_add(read_reg(in.ra, ipc), eval_src(in, ipc));
            break;
          case Op::Sub:
            regs_[in.rd] = abs_sub(read_reg(in.ra, ipc), eval_src(in, ipc));
            break;
          case Op::Mul:
            regs_[in.rd] = abs_mul(read_reg(in.ra, ipc), eval_src(in, ipc));
            break;
          case Op::Min:
            regs_[in.rd] =
                abs_minmax(read_reg(in.ra, ipc), eval_src(in, ipc), true);
            break;
          case Op::Max:
            regs_[in.rd] =
                abs_minmax(read_reg(in.ra, ipc), eval_src(in, ipc), false);
            break;
          case Op::Mad:
            regs_[in.rd] =
                abs_add(abs_mul(read_reg(in.ra, ipc), read_reg(in.rb, ipc)),
                        read_reg(in.rc, ipc));
            break;
          case Op::Sreg:
            regs_[in.rd] = sreg_value(in.sreg);
            break;
          case Op::Ldarg: {
            const KernelArgSpec &spec = prog_.args[in.arg_index];
            if (spec.is_pointer) {
                regs_[in.rd] =
                    AbsVal::pointer(BaseRef{BaseKind::Arg, in.arg_index});
            } else if (static_cast<std::size_t>(in.arg_index) <
                           info_.scalar_values.size() &&
                       info_.scalar_values[in.arg_index]) {
                regs_[in.rd] =
                    AbsVal::constant(*info_.scalar_values[in.arg_index]);
            } else {
                regs_[in.rd] = AbsVal::top();
            }
            break;
          }
          case Op::Ldloc:
            regs_[in.rd] =
                AbsVal::pointer(BaseRef{BaseKind::Local, in.arg_index});
            break;
          case Op::Malloc:
            regs_[in.rd] = AbsVal::pointer(BaseRef{BaseKind::Heap, -1});
            break;
          case Op::Gep: {
            const AbsVal scaled = abs_mul(
                read_reg(in.rb, ipc),
                AbsVal::constant(static_cast<std::int64_t>(in.scale)));
            regs_[in.rd] = abs_add(abs_add(read_reg(in.ra, ipc), scaled),
                                   AbsVal::constant(in.disp));
            break;
          }
          case Op::Ld:
            record_access(ipc, in);
            regs_[in.rd] = AbsVal::top(); // loaded data is runtime input
            break;
          case Op::St:
            record_access(ipc, in);
            break;
          case Op::Lds:
            regs_[in.rd] = AbsVal::top();
            break;
          case Op::Divi:
          case Op::Rem:
          case Op::And:
          case Op::Or:
          case Op::Xor:
          case Op::Shl:
          case Op::Shr:
            if (in.rd != kNoReg)
                regs_[in.rd] = AbsVal::top();
            break;
          default:
            break;
        }
        // Induction registers keep their loop-wide range regardless of
        // the straight-line value just computed — but only inside their
        // loop; afterwards they hold the exit value.
        if (in.rd != kNoReg) {
            const auto it = induction_.find(in.rd);
            if (it != induction_.end() && ipc >= it->second.head &&
                ipc <= it->second.end)
                regs_[in.rd] = it->second.in_loop;
        }
        for (const LoopRegion &loop : loops_) {
            if (loop.end != ipc || loop.ivar == kNoReg)
                continue;
            const auto it = induction_.find(loop.ivar);
            if (it != induction_.end() && it->second.end == ipc)
                regs_[loop.ivar] = it->second.after;
        }
    }

    assign_pointer_types(bat_);
    return std::move(bat_);
}

} // namespace

BoundsAnalysisTable
analyze_kernel(const KernelProgram &prog, const StaticLaunchInfo &info)
{
    Analyzer analyzer(prog, info);
    return analyzer.run();
}

} // namespace gpushield
