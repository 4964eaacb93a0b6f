/**
 * @file
 * The `multitenant` workload: one co-scheduled GpuService running the
 * service's own "skewed" fairness mix (service/fairness.cc: one hog
 * and two light tenants) as a closed loop. Each tenant keeps its mix
 * submission count of launches outstanding, each on its own buffer
 * slot; a launch uploads fresh inputs before it and downloads its
 * output after it, and its next launch on that slot is submitted only
 * then. The seed picks each launch's grid and input values; the
 * tenant shapes are the mix's.
 */

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "service/service.h"
#include "workloads/kernels.h"

namespace perfbench {

namespace {

using namespace gpushield;
using service::Credential;
using service::GpuService;
using service::Ticket;

/** A TenantLoad of the skewed mix, as a closed loop. */
struct TenantShape
{
    const char *name;
    unsigned outstanding; //!< closed-loop window = the mix's submissions
    unsigned inner_iters;
    std::uint32_t threads_per_block;
    std::uint32_t blocks; //!< the mix's grid; launches draw from
                          //!< [max(1, blocks/2), blocks + ceil(blocks/2)]
    std::uint32_t min_blocks() const { return std::max(1u, blocks / 2); }
    std::uint32_t max_blocks() const { return blocks + (blocks + 1) / 2; }
};

// run_fairness's skewed mix (full size), admitted in its order. Its
// streaming kernels take 2 inputs, as there.
const TenantShape kTenants[] = {
    {"hog", 6, 8, 128, 16},
    {"bob", 8, 1, 64, 2},
    {"carol", 8, 1, 64, 2},
};
constexpr std::size_t kNumTenants = std::size(kTenants);
constexpr unsigned kInputs = 2;
/** Each tenant's window is refilled this many times per pass. */
constexpr unsigned kRounds = 60;
constexpr unsigned kProfiledRounds = 3;

std::uint64_t
fnv1a(const std::vector<std::uint32_t> &v)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint32_t w : v)
        for (int b = 0; b < 4; ++b) {
            h ^= (w >> (8 * b)) & 0xFF;
            h *= 0x100000001b3ull;
        }
    return h;
}

/** What the first plain repetition of a launch produced. */
struct LaunchSig
{
    std::uint64_t digest = 0;
    Cycle exec_cycles = 0;
    Cycle latency = 0;
    bool operator==(const LaunchSig &) const = default;
};

class Multitenant final : public Workload
{
  public:
    Multitenant(std::uint64_t seed, unsigned limit)
        : seed_(seed), rounds_(limit == 0 ? kRounds : std::max(1u, limit / window()))
    {
    }

    void
    setup() override
    {
        service::ServiceConfig cfg;
        cfg.mode = service::SchedMode::CoSchedule;
        cfg.max_tenants = static_cast<unsigned>(kNumTenants);
        cfg.seed = mix(seed_, 1);
        svc_ = std::make_unique<GpuService>(cfg);
        for (std::size_t t = 0; t < kNumTenants; ++t)
            tenants_.push_back(make_tenant(*svc_, t));
    }

    void
    release() override
    {
        tenants_.clear();
        svc_.reset();
    }

    PassResult
    run_pass(Mode mode, Tracer &tracer, obs::HostEngineProfiler *) override
    {
        const unsigned rounds =
            mode == Mode::Profiled ? std::min(rounds_, kProfiledRounds) : rounds_;
        PassResult p;
        GpuService &svc = *svc_;
        obs::Profiler profiler(rollup_profile());
        if (mode == Mode::Profiled)
            svc.attach_profiler(&profiler);

        std::vector<std::vector<Cycle>> latencies(kNumTenants);
        auto u0 = Clock::now();
        for (std::size_t t = 0; t < kNumTenants; ++t)
            for (unsigned s = 0; s < kTenants[t].outstanding; ++s)
                submit(svc, tenants_[t], t, s, tracer, p);

        while (outstanding(tenants_)) {
            bool ran = false;
            {
                auto s = tracer.span("service.step");
                ran = svc.step();
            }
            if (!ran) {
                p.unit(0.0, "service idle with launches outstanding");
                break;
            }
            std::vector<std::string> done;
            for (std::size_t t = 0; t < kNumTenants; ++t) {
                Tenant &ten = tenants_[t];
                while (!ten.flight.empty() &&
                       svc.record(ten.flight.front().ticket).done) {
                    const InFlight f = ten.flight.front();
                    ten.flight.pop_front();
                    const service::LaunchRecord &rec = svc.record(f.ticket);
                    latencies[t].push_back(rec.latency());
                    done.push_back(complete(svc, ten, t, f, rec, mode, tracer, p));
                    if (ten.next < kTenants[t].outstanding * rounds)
                        submit(svc, ten, t, f.slot, tracer, p);
                }
            }
            // Host time of the turn, shared by the launches it completed.
            const double ms = seconds_since(u0) * 1e3 /
                              static_cast<double>(std::max<std::size_t>(1, done.size()));
            for (const std::string &why : done)
                p.unit(ms, why);
            u0 = Clock::now();
        }
        p.cycles = svc.now();

        Cycle p50 = 0, p99 = 0;
        for (std::vector<Cycle> &l : latencies) {
            if (l.empty())
                continue;
            std::sort(l.begin(), l.end());
            p50 = std::max(p50, l[(l.size() - 1) / 2]);
            p99 = std::max(p99, l[(l.size() * 99 - 1) / 100]);
        }
        p.counters.set("tenant_latency_p50_cycles", p50);
        p.counters.set("tenant_latency_p99_cycles", p99);
        for (const Tenant &ten : tenants_)
            p.counters.add("queue_rejects",
                           svc.tenant_stats(ten.cred.tenant).get("queue_rejects"));
        if (mode == Mode::Profiled) {
            svc.attach_profiler(nullptr);
            p.counters.merge(profiler.summary().to_statset());
        }
        if (mode == Mode::Plain && first_.empty())
            first_ = std::move(sigs_);
        sigs_.clear();
        return p;
    }

  private:
    struct Slot
    {
        std::vector<BufferHandle> in;
        BufferHandle out;
    };

    struct InFlight
    {
        Ticket ticket = 0;
        unsigned slot = 0;
        unsigned launch = 0; //!< per-tenant launch index
        std::uint32_t blocks = 0;
    };

    struct Tenant
    {
        Credential cred;
        KernelProgram program;
        std::vector<Slot> slots;
        std::deque<InFlight> flight;
        unsigned next = 0; //!< next launch index to submit
    };

    /** Launches all tenants keep in flight together. */
    static unsigned
    window()
    {
        unsigned w = 0;
        for (const TenantShape &shape : kTenants)
            w += shape.outstanding;
        return w;
    }

    /** Index of tenant @p t's launch @p launch among a pass's launches. */
    std::size_t
    launch_key(std::size_t t, unsigned launch) const
    {
        std::size_t key = launch;
        for (std::size_t u = 0; u < t; ++u)
            key += std::size_t{kTenants[u].outstanding} * rounds_;
        return key;
    }

    static bool
    outstanding(const std::vector<Tenant> &tenants)
    {
        for (const Tenant &t : tenants)
            if (!t.flight.empty())
                return true;
        return false;
    }

    Tenant
    make_tenant(GpuService &svc, std::size_t t) const
    {
        const TenantShape &shape = kTenants[t];
        Tenant ten;
        ten.cred = svc.admit(shape.name);
        workloads::PatternParams params;
        params.name = shape.name;
        params.inputs = kInputs;
        params.inner_iters = shape.inner_iters;
        ten.program = workloads::make_streaming(params);
        const std::uint64_t bytes =
            std::uint64_t{4} * shape.threads_per_block * shape.max_blocks();
        for (unsigned s = 0; s < shape.outstanding; ++s) {
            Slot slot;
            for (unsigned k = 0; k < kInputs; ++k)
                slot.in.push_back(svc.create_buffer(ten.cred, bytes));
            slot.out = svc.create_buffer(ten.cred, bytes);
            ten.slots.push_back(slot);
        }
        return ten;
    }

    /** Seed-derived input of element @p e of input @p k of a launch. */
    std::uint32_t
    input_value(std::size_t t, unsigned launch, unsigned k, std::uint32_t e) const
    {
        const std::uint64_t base = mix(seed_, (t << 40) | (std::uint64_t{launch} << 8) | k);
        return static_cast<std::uint32_t>(base & 0xFFFF) + e;
    }

    void
    submit(GpuService &svc, Tenant &ten, std::size_t t, unsigned slot,
           Tracer &tracer, PassResult &p)
    {
        const TenantShape &shape = kTenants[t];
        InFlight f;
        f.slot = slot;
        f.launch = ten.next++;
        const std::uint64_t span = shape.max_blocks() - shape.min_blocks() + 1;
        f.blocks = shape.min_blocks() +
                   static_cast<std::uint32_t>(mix(seed_, (t << 40) | f.launch | (1ull << 32)) % span);
        const std::uint32_t n = f.blocks * shape.threads_per_block;

        std::vector<api::Arg> args;
        std::vector<std::uint32_t> data(n);
        for (unsigned k = 0; k < kInputs; ++k) {
            for (std::uint32_t e = 0; e < n; ++e)
                data[e] = input_value(t, f.launch, k, e);
            auto s = tracer.span("api.upload");
            svc.upload(ten.cred, ten.slots[slot].in[k], data.data(), n * 4u);
            args.push_back(api::arg(ten.slots[slot].in[k]));
        }
        args.push_back(api::arg(ten.slots[slot].out));

        service::SubmitResult r;
        {
            auto s = tracer.span("service.submit");
            r = svc.submit(ten.cred, ten.program, {shape.threads_per_block, f.blocks}, args);
        }
        if (r.status != service::SubmitStatus::Accepted) {
            p.unit(0.0, std::string(shape.name) + ": submission rejected");
            return;
        }
        f.ticket = r.ticket;
        ten.flight.push_back(f);
    }

    /** Downloads and checks one finished launch; returns why it failed. */
    std::string
    complete(GpuService &svc, Tenant &ten, std::size_t t, const InFlight &f,
             const service::LaunchRecord &rec, Mode mode, Tracer &tracer,
             PassResult &p)
    {
        const TenantShape &shape = kTenants[t];
        const std::uint32_t n = f.blocks * shape.threads_per_block;
        std::vector<std::uint32_t> out(n);
        {
            auto s = tracer.span("api.download");
            svc.download(ten.cred, ten.slots[f.slot].out, out.data(), n * 4u);
        }
        p.instructions += rec.stats.get("instructions");
        add_counters(p.counters, rec.exec_cycles, 0, rec.violations.size(),
                     {}, {}, {}, rec.stats);

        const std::string who = std::string(shape.name) + " launch " +
                                std::to_string(f.launch);
        if (rec.status != api::LaunchStatus::Ok)
            return who + ": status " + api::to_string(rec.status) + " " +
                   rec.status_message;
        if (!rec.violations.empty())
            return who + ": violation on a clean kernel";
        // out[e] = (sum of inputs) * prod(3 + k), k = 1 .. inner_iters-1.
        std::uint32_t scale = 1;
        for (unsigned k = 1; k < shape.inner_iters; ++k)
            scale *= 3 + k;
        for (std::uint32_t e = 0; e < n; ++e) {
            std::uint32_t sum = 0;
            for (unsigned k = 0; k < kInputs; ++k)
                sum += input_value(t, f.launch, k, e);
            if (out[e] != sum * scale)
                return who + ": wrong output at element " + std::to_string(e);
        }

        const LaunchSig sig{fnv1a(out), rec.exec_cycles, rec.latency()};
        const std::size_t key = launch_key(t, f.launch);
        if (mode == Mode::Plain && first_.empty()) {
            if (sigs_.size() <= key)
                sigs_.resize(key + 1);
            sigs_[key] = sig;
        } else if (mode != Mode::Profiled && key < first_.size() &&
                   !(sig == first_[key])) {
            return who + (sig.digest != first_[key].digest
                              ? ": download digest changed"
                              : ": simulated record differs from first repetition");
        }
        return {};
    }

    std::uint64_t seed_;
    unsigned rounds_; //!< window refills per pass
    std::unique_ptr<GpuService> svc_;
    std::vector<Tenant> tenants_;
    std::vector<LaunchSig> sigs_;  //!< being collected (first plain pass)
    std::vector<LaunchSig> first_; //!< first plain pass, by launch key
};

} // namespace

std::unique_ptr<Workload>
make_multitenant(std::uint64_t seed, unsigned limit)
{
    return std::make_unique<Multitenant>(seed, limit);
}

} // namespace perfbench
