#include "bench.h"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

/** Typical reference time on the VM the benchmark was defined on. */
constexpr double kReferenceSeconds = 0.0060;
/**
 * How far the program's host time moves per unit change of the
 * reference's, both in logs: the slope fitted over passes of all four
 * workloads was 0.6-1.1, median about 0.8 (README.md).
 */
constexpr double kElasticity = 0.8;
/** Unit time between two reference samples. */
constexpr double kReferenceEveryMs = 500.0;

constexpr std::size_t kTableWords = std::size_t{1} << 21; // 16 MiB
constexpr std::size_t kCycleWords = std::size_t{1} << 22; // 32 MiB

volatile std::uint64_t reference_sink = 0;

/** Maps @p words zeroed words on 4 KiB pages. Without MADV_NOHUGEPAGE,
 *  a table's time jumped whenever khugepaged collapsed it. */
std::uint64_t *
map_words(std::size_t words)
{
    const std::size_t bytes = words * sizeof(std::uint64_t);
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::runtime_error("cannot map the reference buffers");
    (void)madvise(p, bytes, MADV_NOHUGEPAGE);
    std::memset(p, 0, bytes);
    return static_cast<std::uint64_t *>(p);
}

/** One random cycle through all of a 32 MiB buffer (Sattolo's shuffle). */
const std::uint64_t *
cycle()
{
    static const std::uint64_t *c = [] {
        std::uint64_t *next = map_words(kCycleWords);
        for (std::size_t i = 0; i < kCycleWords; ++i)
            next[i] = i;
        std::uint64_t x = 0;
        for (std::size_t i = kCycleWords - 1; i > 0; --i) {
            x = mix(x, i);
            std::swap(next[i], next[x % i]);
        }
        return next;
    }();
    return c;
}

/**
 * Puts the caches, the TLB and the allocator's free lists into the same
 * state before every timed reference run, whatever ran before it: 60k
 * steps along the random cycle, then 20k heap blocks of 16-527 bytes
 * and a hash map, all freed again.
 */
void
scrub()
{
    const std::uint64_t *next = cycle();
    std::uint64_t j = 0;
    for (int i = 0; i < 60000; ++i)
        j = next[j];
    std::vector<void *> blocks;
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    std::uint64_t x = 1;
    for (std::uint64_t i = 0; i < 20000; ++i) {
        x = mix(x, i);
        blocks.push_back(::operator new(16 + (x & 511)));
        map[x] = i;
    }
    for (std::size_t i = 0; i < blocks.size(); ++i)
        ::operator delete(blocks[(i * 7919) % blocks.size()]);
    reference_sink = j + map.size();
}

} // namespace

double
reference_seconds()
{
    static std::uint64_t *table = map_words(kTableWords);
    scrub();
    const auto t0 = Clock::now();
    std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < 400000; ++i) {
        x = mix(x, i);
        table[x & (kTableWords - 1)] += i;
    }
    reference_sink = table[x & (kTableWords - 1)];
    return seconds_since(t0);
}

std::size_t
reference_bytes()
{
    return (kTableWords + kCycleWords) * sizeof(std::uint64_t);
}

Tracer::Scope::Scope(Tracer *tracer, const char *name) : tracer_(tracer)
{
    if (tracer_ == nullptr)
        return;
    index_ = static_cast<int>(tracer_->spans_.size());
    tracer_->spans_.push_back({name, Clock::now(), {}, tracer_->open_});
    tracer_->open_ = index_;
}

Tracer::Scope::~Scope()
{
    if (tracer_ == nullptr)
        return;
    Span &s = tracer_->spans_[static_cast<std::size_t>(index_)];
    s.end = Clock::now();
    tracer_->open_ = s.parent;
}

double
Tracer::seconds(const std::string &name) const
{
    double total = 0.0;
    for (const Span &s : spans_)
        if (name == s.name)
            total += std::chrono::duration<double>(s.end - s.start).count();
    return total;
}

bool
Tracer::write_chrome(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.start)
            << ",\"dur\":" << us(s.end) - us(s.start)
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

void
PassResult::unit(double ms, const std::string &why)
{
    unit_ms.push_back(ms);
    ++attempted;
    if (!why.empty()) {
        ++failed;
        if (failures.size() < 5)
            failures.push_back(why);
    }
    ms_since_reference_ += ms;
    if (reference_s.empty() || ms_since_reference_ >= kReferenceEveryMs) {
        reference_warmup_s.push_back(reference_seconds());
        for (int i = 0; i < 3; ++i)
            reference_s.push_back(reference_seconds());
        ms_since_reference_ = 0.0;
    }
}

double
PassResult::units_s() const
{
    double ms = 0.0;
    for (double u : unit_ms)
        ms += u;
    return ms / 1e3;
}

double
PassResult::speed_factor() const
{
    if (reference_s.empty())
        return 1.0;
    // The median ignores the odd preempted sample.
    std::vector<double> r = reference_s;
    std::nth_element(r.begin(), r.begin() + static_cast<std::ptrdiff_t>(r.size() / 2), r.end());
    return std::pow(kReferenceSeconds / r[r.size() / 2], kElasticity);
}

} // namespace perfbench
