#include "api/gpushield_api.h"

#include <stdexcept>
#include <utility>

#include "common/log.h"

namespace gpushield::api {

const char *
to_string(LaunchStatus status)
{
    switch (status) {
    case LaunchStatus::Ok: return "ok";
    case LaunchStatus::Aborted: return "aborted";
    case LaunchStatus::Error: return "error";
    }
    return "unknown";
}

Context::Context(const GpuConfig &config, std::uint64_t seed,
                 std::size_t id_space)
    : config_(config), device_(config.mem.page_size),
      driver_(device_, seed, id_space)
{
    driver_.set_shield_backend(config.shield.backend);
}

Buffer
Context::malloc(std::uint64_t bytes, const BufferDesc &desc)
{
    return driver_.create_buffer(bytes, desc.read_only, desc.pow2,
                                 desc.label);
}

void
Context::upload(Buffer buffer, const void *data, std::size_t len,
                std::uint64_t offset)
{
    driver_.upload(buffer, data, len, offset);
}

void
Context::download(Buffer buffer, void *out, std::size_t len,
                  std::uint64_t offset) const
{
    driver_.download(buffer, out, len, offset);
}

VAddr
Context::address_of(Buffer buffer) const
{
    return driver_.region(buffer).base;
}

LaunchConfig
make_launch_config(const KernelProgram &program, Grid grid,
                   const std::vector<Arg> &args,
                   const LaunchOptions &options)
{
    // Host-API misuse throws (the contract in the header); everything
    // the simulated program does is reported via LaunchResult::status.
    if (args.size() != program.args.size())
        throw std::invalid_argument(
            "api::launch: argument count mismatch (" +
            std::to_string(args.size()) + " given, " +
            std::to_string(program.args.size()) + " declared)");

    LaunchConfig cfg;
    cfg.program = &program;
    cfg.ntid = grid.threads_per_block;
    cfg.nctaid = grid.blocks;
    cfg.shield_enabled = options.shield;
    cfg.use_static_analysis = options.static_analysis;
    cfg.replace_sw_checks = options.replace_sw_checks;
    cfg.heap_bytes = options.heap_bytes;
    cfg.scalars.assign(args.size(), 0);
    cfg.scalar_static.assign(args.size(), false);

    // Buffers bind positionally: the i-th pointer argument takes the
    // i-th buffer Arg. KernelArgSpec::buffer_index already encodes the
    // slot when the builder declared the args in order.
    for (std::size_t i = 0; i < args.size(); ++i) {
        const bool declared_ptr = program.args[i].is_pointer;
        if (declared_ptr != args[i].is_buffer())
            throw std::invalid_argument(
                "api::launch: argument " + std::to_string(i) +
                (declared_ptr ? " must be a buffer" : " must be a scalar"));
        if (args[i].is_buffer()) {
            cfg.buffers.resize(
                std::max<std::size_t>(cfg.buffers.size(),
                                      program.args[i].buffer_index + 1));
            cfg.buffers[program.args[i].buffer_index] = args[i].buffer();
        } else {
            cfg.scalars[i] = args[i].scalar();
            cfg.scalar_static[i] = args[i].scalar_static();
        }
    }
    return cfg;
}

BatchResult
run_batch(const GpuConfig &config, GpuDevice &device,
          const std::vector<BatchLaunch> &launches, obs::Profiler *profiler,
          IssueObserver *observer)
{
    Gpu gpu(config, device);
    if (observer != nullptr)
        gpu.set_observer(observer);
    if (profiler != nullptr)
        gpu.set_profiler(profiler);

    BatchResult batch;
    batch.launches.resize(launches.size());
    std::vector<std::size_t> idx(launches.size(), 0);
    bool any_started = false;
    for (std::size_t i = 0; i < launches.size(); ++i) {
        const BatchLaunch &l = launches[i];
        try {
            idx[i] = gpu.launch_for(l.driver->launch(l.config), *l.driver,
                                    l.core_mask);
            batch.launches[i].started = true;
            any_started = true;
        } catch (const SimulationError &e) {
            // Driver-side setup failure: the kernel never starts and no
            // launch state exists. The driver stays usable, so later
            // launches proceed; exhaustion is per-launch, not an outage.
            batch.launches[i].result.status = LaunchStatus::Error;
            batch.launches[i].result.status_message = e.what();
        } catch (const std::invalid_argument &) {
            // Host misuse aborts the batch: the launches attached so far
            // give their IDs back before the caller sees the throw.
            for (std::size_t j = 0; j < i; ++j)
                if (batch.launches[j].started)
                    launches[j].driver->finish(gpu.launch_state(idx[j]));
            throw;
        }
    }
    if (!any_started)
        return batch;

    bool run_failed = false;
    std::string run_error;
    try {
        gpu.run();
    } catch (const SimulationError &e) {
        run_failed = true;
        run_error = e.what();
    }
    batch.makespan = gpu.now();
    const double l1_rcache_hit_rate = gpu.rcache_l1_hit_rate();

    for (std::size_t i = 0; i < launches.size(); ++i) {
        BatchOutcome &out = batch.launches[i];
        if (!out.started)
            continue;
        LaunchResult &r = out.result;
        KernelResult kr = gpu.result(idx[i]);
        LaunchState &state = gpu.launch_state(idx[i]);
        if (run_failed) {
            r.status = LaunchStatus::Error;
            r.status_message = run_error;
            r.cycles = gpu.now();
        } else {
            r.cycles = kr.cycles();
            if (kr.aborted) {
                r.status = LaunchStatus::Aborted;
                r.status_message =
                    config.precise_exceptions &&
                            kr.stats.get("violations") > 0
                        ? "bounds violation (precise exception)"
                        : "illegal memory access (translation fault)";
            }
        }
        r.violations = std::move(kr.violations);
        r.stats = std::move(kr.stats);
        r.l1_rcache_hit_rate = l1_rcache_hit_rate;
        out.arg_values = state.arg_values;
        r.canaries = launches[i].driver->finish(state);
    }
    return batch;
}

LaunchResult
Context::launch(const KernelProgram &program, Grid grid,
                const std::vector<Arg> &args, const LaunchOptions &options)
{
    const std::vector<BatchLaunch> one = {
        {&driver_, make_launch_config(program, grid, args, options),
         options.core_mask}};

    obs::Profiler *profiler = nullptr;
    if (options.profile.enabled) {
        if (!profiler_) {
            obs::ProfileConfig pcfg;
            pcfg.sample_interval = options.profile.sample_interval;
            pcfg.workgroup_spans = options.profile.workgroup_spans;
            profiler_ = std::make_unique<obs::Profiler>(pcfg);
        }
        profiler_->set_time_base(profile_time_base_);
        profiler = profiler_.get();
    }

    BatchResult batch =
        run_batch(config_, device_, one, profiler, observer_);
    BatchOutcome &out = batch.launches.front();
    if (out.started && profiler_)
        out.result.profile = profiler_->summary();
    // A launch whose setup failed ran for 0 cycles, so the profile
    // timeline does not move.
    if (options.profile.enabled)
        profile_time_base_ += batch.makespan;
    return std::move(out.result);
}

} // namespace gpushield::api
