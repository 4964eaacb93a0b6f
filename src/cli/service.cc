/**
 * @file
 * gpushield service — multi-tenant GPU service.
 *
 *   gpushield service --attacks             isolation attack battery
 *                                           (exit 1 on any escape)
 *   gpushield service --fairness [--json F] fairness bench; JSON report
 *   gpushield service --demo                2-tenant scheduling demo
 */

#include <iostream>
#include <string>

#include "cli/commands.h"
#include "service/fairness.h"
#include "service/isolation.h"
#include "workloads/kernels.h"

namespace gpushield::cli {

namespace {

using namespace gpushield::service;

int
run_attacks(const ServiceConfig &cfg, bool quiet)
{
    const IsolationReport report = run_isolation_suite(cfg);
    for (const AttackOutcome &o : report.outcomes) {
        if (!quiet || !o.contained)
            std::cout << (o.contained ? "[contained] " : "[ESCAPED]   ")
                      << o.name << ": " << o.detail << "\n";
    }
    const bool ok = report.all_contained();
    std::cout << "isolation: " << report.outcomes.size() << " attacks, "
              << (ok ? "all contained" : "CROSS-TENANT ESCAPE") << "\n";
    return ok ? 0 : 1;
}

int
run_fairness_cmd(const ServiceConfig &cfg, const std::string &json_path,
                 bool quick, bool quiet)
{
    const std::unique_ptr<std::ostream> json =
        open_output(json_path.empty() ? "-" : json_path);
    if (!json)
        return 2;
    const FairnessReport report = run_fairness(cfg, quick);
    if (!quiet) {
        for (const FairnessMixResult &mix : report.mixes) {
            std::cout << "mix " << mix.mix << " (" << to_string(mix.mode)
                      << "), " << mix.total_cycles << " cycles\n";
            for (const FairnessTenantResult &t : mix.tenants)
                std::cout << "  " << t.name << ": completed=" << t.completed
                          << " p50=" << t.p50 << " p99=" << t.p99
                          << " share=" << t.throughput_share << "\n";
        }
    }
    write_json(report, *json);
    if (!json_path.empty() && !quiet)
        std::cout << "wrote " << json_path << "\n";
    return 0;
}

int
run_demo(ServiceConfig cfg, unsigned tenants, bool quiet)
{
    cfg.max_tenants = tenants;
    GpuService svc(cfg);

    workloads::PatternParams p;
    p.inputs = 2;
    for (unsigned t = 0; t < tenants; ++t) {
        p.name = "demo_t" + std::to_string(t);
        const Credential cred = svc.admit("tenant" + std::to_string(t));
        const KernelProgram prog = workloads::make_streaming(p);
        std::vector<api::Arg> args;
        for (std::size_t a = 0; a < prog.args.size(); ++a)
            args.push_back(api::arg(svc.create_buffer(cred, 4 * 256)));
        for (unsigned s = 0; s < 4; ++s)
            (void)svc.submit(cred, prog, {64, 4}, args);
    }
    svc.drain();

    for (unsigned t = 1; t <= tenants; ++t) {
        const StatSet &s = svc.tenant_stats(static_cast<TenantId>(t));
        if (!quiet)
            std::cout << "tenant " << t
                      << ": launches=" << s.get("launches")
                      << " ok=" << s.get("launches_ok")
                      << " exec_cycles=" << s.get("exec_cycles")
                      << " p_latency_mean="
                      << (s.get("launches")
                              ? s.get("latency_cycles") / s.get("launches")
                              : 0)
                      << "\n";
    }
    std::cout << "demo: " << svc.stats().get("launches") << " launches, "
              << svc.now() << " cycles, mode " << to_string(cfg.mode)
              << "\n";
    return 0;
}

} // namespace

int
service(int argc, char **argv)
{
    enum class Cmd { None, Attacks, Fairness, Demo };
    Cmd cmd = Cmd::None;
    ServiceConfig cfg;
    unsigned tenants = 2;
    std::string json_path;
    bool quick = false;
    bool quiet = false;

    const auto select = [&cmd](Cmd c) {
        return [&cmd, c](const char *) { return (cmd = c, true); };
    };
    const auto mode = [&cfg](const char *m) {
        const std::string name = m;
        if (name == "timeslice")
            cfg.mode = SchedMode::TimeSlice;
        else if (name == "cosched")
            cfg.mode = SchedMode::CoSchedule;
        else
            return false;
        return true;
    };
    const char *synopsis = "(--attacks | --fairness | --demo) [options]";
    const Options opts{"service", synopsis, {
        {"--attacks", nullptr, "attack battery; exit 1 on any escape",
         select(Cmd::Attacks)},
        {"--fairness", nullptr, "run the fairness bench (3 mixes)",
         select(Cmd::Fairness)},
        {"--demo", nullptr, "2-tenant round-robin demo", select(Cmd::Demo)},
        {"--mode", "M", "timeslice (default) or cosched", mode},
        {"--tenants", "N", "demo tenant count (default 2)", &tenants},
        {"--quantum", "N", "time-slice quantum (default 1)", &cfg.quantum},
        {"--backend", "NAME", "shield backend: region (default) or armor",
         &cfg.gpu.shield.backend},
        {"--json", "FILE", "fairness: write the JSON report here",
         &json_path},
        {"--quick", nullptr, "shrink workloads (CI smoke)", &quick},
        {"--quiet", nullptr, "suppress per-item output", &quiet},
    }};
    if (!opts.parse(argc, argv))
        return 2;

    switch (cmd) {
    case Cmd::Attacks: return run_attacks(cfg, quiet);
    case Cmd::Fairness:
        return run_fairness_cmd(cfg, json_path, quick, quiet);
    case Cmd::Demo: return run_demo(cfg, tenants, quiet);
    case Cmd::None: break;
    }
    return opts.usage();
}

} // namespace gpushield::cli
