#include "obs/engine_profile.h"

#include <sstream>

namespace gpushield::obs {

const char *
HostEngineProfiler::phase_name(Phase p)
{
    switch (p) {
      case Phase::Issue: return "issue";
      case Phase::Events: return "events";
      case Phase::Detach: return "detach";
    }
    return "?";
}

std::uint64_t
HostEngineProfiler::total_ns() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t v : ns_)
        total += v;
    return total;
}

std::string
HostEngineProfiler::report() const
{
    const std::uint64_t total = total_ns();
    std::ostringstream os;
    os << "engine host profile (" << cycles_simulated_
       << " cycles ticked, " << cycles_skipped_ << " skipped)\n";
    for (unsigned i = 0; i < kPhases; ++i) {
        const double share =
            total == 0 ? 0.0
                       : 100.0 * static_cast<double>(ns_[i]) /
                             static_cast<double>(total);
        os << "  " << phase_name(static_cast<Phase>(i)) << ": "
           << ns_[i] / 1000 << " us (" << static_cast<int>(share + 0.5)
           << "%) over " << calls_[i] << " calls\n";
    }
    return os.str();
}

std::string
HostEngineProfiler::json() const
{
    std::ostringstream os;
    os << "{";
    for (unsigned i = 0; i < kPhases; ++i)
        os << "\"" << phase_name(static_cast<Phase>(i)) << "_ns\":"
           << ns_[i] << ",";
    os << "\"cycles_simulated\":" << cycles_simulated_
       << ",\"cycles_skipped\":" << cycles_skipped_ << "}";
    return os.str();
}

} // namespace gpushield::obs
