/**
 * @file
 * Hot-tier counter tests: lock-free counting correctness under
 * concurrency (conservation across 8 threads — the TSan target),
 * snapshot windowing, gating, and a `gc.pauses` that lands every pause
 * in the cell that made it.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "harness/runner.hh"
#include "trace/hot_metrics.hh"
#include "workloads/registry.hh"

namespace {

using namespace capo;

/** Serialize the hot tier across tests: it is process-global state. */
class HotMetricsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::hot::setEnabled(false);
        trace::hot::reset();
        trace::hot::setEnabled(true);
    }

    void
    TearDown() override
    {
        trace::hot::setEnabled(false);
        trace::hot::reset();
    }
};

TEST_F(HotMetricsTest, DisabledRecordsNothing)
{
    trace::hot::setEnabled(false);
    trace::hot::count(trace::hot::TimerOps, 100);
    trace::hot::count(trace::hot::GcPauses);
    const auto snap = trace::hot::snapshot();
    EXPECT_EQ(snap.counter(trace::hot::TimerOps), 0u);
    EXPECT_EQ(snap.counter(trace::hot::GcPauses), 0u);
}

TEST_F(HotMetricsTest, ConcurrentRecordingConservesEverySample)
{
    // The TSan target: 8 threads hammer the same counters; every bump
    // must be accounted for afterwards (atomic conservation), with no
    // lock in sight on the record path.
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kPerThread; ++i) {
                trace::hot::count(trace::hot::TimerOps,
                                  static_cast<std::uint64_t>(t + 1));
                trace::hot::count(trace::hot::GcPauses);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    std::uint64_t timer_ops = 0;
    for (int t = 0; t < kThreads; ++t)
        timer_ops += static_cast<std::uint64_t>(t + 1) * kPerThread;
    const auto snap = trace::hot::snapshot();
    EXPECT_EQ(snap.counter(trace::hot::TimerOps), timer_ops);
    EXPECT_EQ(snap.counter(trace::hot::GcPauses),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(snap.counter(trace::hot::InvocationsCompleted), 0u);
}

TEST_F(HotMetricsTest, SnapshotSinceWindowsTheDelta)
{
    trace::hot::count(trace::hot::TimerOps, 7);
    trace::hot::count(trace::hot::InvocationsCompleted);
    const auto before = trace::hot::snapshot();
    trace::hot::count(trace::hot::TimerOps, 2);
    trace::hot::count(trace::hot::GcPauses, 3);
    const auto delta = trace::hot::snapshot().since(before);
    EXPECT_EQ(delta.counter(trace::hot::TimerOps), 2u);
    EXPECT_EQ(delta.counter(trace::hot::GcPauses), 3u);
    EXPECT_EQ(delta.counter(trace::hot::InvocationsCompleted), 0u);
}

TEST_F(HotMetricsTest, NamesAreDotted)
{
    EXPECT_STREQ(trace::hot::counterName(trace::hot::TimerOps),
                 "sim.timer.ops");
    EXPECT_STREQ(trace::hot::counterName(trace::hot::InvocationsCompleted),
                 "harness.invocations");
    EXPECT_STREQ(trace::hot::counterName(trace::hot::GcPauses),
                 "gc.pauses");
}

TEST_F(HotMetricsTest, EachPauseIsCountedInItsOwnCell)
{
    // A concurrent collector can finish a pause after shutdown(). The
    // pooled collector then runs the next cell, so a pause count that
    // lands late would read one short here and one long there.
    harness::ExperimentOptions options;
    options.iterations = 3;
    options.invocations = 1;
    options.jobs = 1;
    options.keep_gc_log = true;
    const harness::Runner runner(options);
    const auto &fop = workloads::byName("fop");
    for (const double factor : {1.25, 2.0}) {
        const auto before = trace::hot::snapshot();
        const auto set =
            runner.run(fop, gc::Algorithm::Shenandoah, factor);
        const auto delta = trace::hot::snapshot().since(before);
        ASSERT_EQ(set.runs.size(), 1u);
        EXPECT_EQ(delta.counter(trace::hot::GcPauses),
                  set.runs.front().log.pauseCount())
            << "fop/shenandoah at " << factor << "x";
        EXPECT_EQ(delta.counter(trace::hot::InvocationsCompleted), 1u);
    }
}

} // namespace
