/**
 * @file
 * Suite-wide integration invariants: every workload, run end to end
 * at the paper's default configuration (2x GMD, G1), must complete
 * and produce physically consistent measurements.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "metrics/footprint.hh"
#include "metrics/request_synth.hh"
#include "workloads/registry.hh"

namespace capo {
namespace {

class EveryWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryWorkload, RunsCleanlyAtDefaultConfiguration)
{
    const auto &workload = workloads::byName(GetParam());

    harness::ExperimentOptions options;
    options.iterations = 2;
    options.invocations = 1;
    options.trace_rate = workload.latency_sensitive;
    options.keep_gc_log = true;
    harness::Runner runner(options);

    const auto set = runner.run(workload, gc::Algorithm::G1, 2.0);
    ASSERT_TRUE(set.allCompleted()) << workload.name;
    const auto &run = set.runs.front();

    // Physical consistency of the measurements.
    EXPECT_GT(run.wall, 0.0);
    EXPECT_GE(run.cpu, run.mutator_cpu);
    EXPECT_GT(run.gc_cpu, 0.0) << "GC ran";
    EXPECT_LE(run.log.stwWall(), run.wall);
    EXPECT_LE(run.log.stwCpu(), run.cpu);
    EXPECT_LE(run.cpu, run.wall * 32.0 * (1.0 + 1e-9))
        << "task clock cannot exceed wall x cpus";
    EXPECT_GT(run.collections, 0u);
    EXPECT_GT(run.total_allocated, 0.0);

    // The timed slice nests inside the whole run.
    EXPECT_LE(run.timed.wall, run.wall);
    EXPECT_LE(run.timed.stw_wall, run.timed.wall);

    // Footprint integration works on every log and stays within the
    // heap limit.
    const auto footprint =
        metrics::integrateFootprint(run.log, 0.0, run.wall);
    EXPECT_GT(footprint.samples, 0u);
    EXPECT_LE(footprint.peak_bytes,
              2.0 * workload.gc.gmd_mb * 1024 * 1024 * 1.001);

    // Latency-sensitive workloads synthesize their request profile.
    if (workload.latency_sensitive) {
        const auto &timed = run.iterations.back();
        const auto requests = metrics::synthesizeRequests(
            run.rate_timeline, run.baseline_rate, workload.requests,
            timed.wall_begin, timed.wall_end, support::Rng(1));
        EXPECT_GT(requests.size(), 100u);
        // Metered latency dominates simple latency event-by-event.
        const auto metered = requests.meteredLatencies(100e6);
        auto simple_sorted = requests.simpleLatencies();
        auto metered_sorted = metered;
        std::sort(simple_sorted.begin(), simple_sorted.end());
        std::sort(metered_sorted.begin(), metered_sorted.end());
        for (std::size_t q = 1; q <= 9; ++q) {
            EXPECT_GE(metrics::quantileSorted(metered_sorted, q * 0.1) +
                          1e-6,
                      metrics::quantileSorted(simple_sorted, q * 0.1));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, EveryWorkload,
    ::testing::ValuesIn(workloads::names()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace capo
