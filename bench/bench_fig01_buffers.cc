/**
 * @file
 * Figure 1: distribution of the number of memory buffers across 13 GPU
 * benchmark suites (145 benchmarks; max 34, average 6.5, 55.9% under
 * five buffers).
 *
 * Prints the per-suite bucket distribution exactly as the figure stacks
 * it, plus the aggregate statistics the paper quotes in the caption and
 * §2.1/§5.2.4.
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "workloads/corpus.h"
#include "workloads/suites.h"

using namespace gpushield;
using namespace gpushield::workloads;

int
main()
{
    std::map<std::string, std::array<unsigned, 4>> buckets;
    std::vector<std::string> suite_order;
    for (const CorpusRecord &r : corpus()) {
        if (buckets.find(r.suite) == buckets.end())
            suite_order.push_back(r.suite);
        auto &b = buckets[r.suite];
        if (r.num_buffers < 5)
            ++b[0];
        else if (r.num_buffers < 10)
            ++b[1];
        else if (r.num_buffers < 20)
            ++b[2];
        else
            ++b[3];
    }

    std::printf("=== Figure 1: #buffers per benchmark, by suite ===\n");
    std::printf("%-16s %6s %6s %6s %6s\n", "suite", "<5", "<10", "<20",
                ">=20");
    for (const std::string &suite : suite_order) {
        const auto &b = buckets[suite];
        std::printf("%-16s %6u %6u %6u %6u\n", suite.c_str(), b[0], b[1],
                    b[2], b[3]);
    }

    const CorpusStats stats = corpus_stats();
    std::printf("\nbenchmarks        %zu   (paper: 145)\n", stats.benchmarks);
    std::printf("max buffers       %u    (paper: 34)\n", stats.max_buffers);
    std::printf("avg buffers       %.2f  (paper: 6.5)\n", stats.avg_buffers);
    std::printf("frac <5 buffers   %.1f%% (paper: 55.9%%)\n",
                stats.fraction_under5 * 100);

    std::printf("\nsimulated CUDA subset: %zu benchmarks\n",
                cuda_benchmarks().size());
    return 0;
}
