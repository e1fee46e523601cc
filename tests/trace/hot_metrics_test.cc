/**
 * @file
 * Hot-tier metrics tests: lock-free recording correctness under
 * concurrency (count/sum conservation across 8 threads — the TSan
 * target), per-run counter accumulators, snapshot windowing and
 * gating.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "support/rng.hh"
#include "trace/hot_metrics.hh"

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
    trace::hot::observe(trace::hot::TimerQueueDepth, 5.0);
    trace::hot::count(trace::hot::SimEvents, 100);
    const auto snap = trace::hot::snapshot();
    EXPECT_EQ(snap.histogram(trace::hot::TimerQueueDepth).count, 0u);
    EXPECT_EQ(snap.counter(trace::hot::SimEvents), 0u);
}

TEST_F(HotMetricsTest, BucketsCoverBoundsAndOverflow)
{
    // First bound of TimerQueueDepth is 1; last is 4096. A sample at
    // a bound lands in that bound's bucket; past the last bound lands
    // in the overflow cell.
    trace::hot::observe(trace::hot::TimerQueueDepth, 1.0);
    trace::hot::observe(trace::hot::TimerQueueDepth, 2.0);
    trace::hot::observe(trace::hot::TimerQueueDepth, 1e9);
    const auto hist =
        trace::hot::snapshot().histogram(trace::hot::TimerQueueDepth);
    ASSERT_EQ(hist.buckets.size(), hist.bounds.size() + 1);
    EXPECT_EQ(hist.buckets.front(), 1u);   // value 1 -> bound 1
    EXPECT_EQ(hist.buckets[1], 1u);        // value 2 -> bound 2
    EXPECT_EQ(hist.buckets.back(), 1u);    // 1e9 -> overflow
    EXPECT_EQ(hist.count, 3u);
}

TEST_F(HotMetricsTest, SumTracksValuesWithinScaleError)
{
    double expected = 0.0;
    for (int i = 1; i <= 1000; ++i) {
        trace::hot::observe(trace::hot::CellSetupNs,
                            static_cast<double>(i) * 1000.0);
        expected += i * 1000.0;
    }
    const auto hist =
        trace::hot::snapshot().histogram(trace::hot::CellSetupNs);
    EXPECT_EQ(hist.count, 1000u);
    // Sums are scaled-integer (x1024, truncated): each sample loses
    // less than 1/1024 of a unit.
    EXPECT_NEAR(hist.sum, expected, 1000.0 / 1024.0 + 1.0);
    EXPECT_NEAR(hist.mean(), expected / 1000.0, 1.0);
}

TEST_F(HotMetricsTest, ConcurrentRecordingConservesEverySample)
{
    // The TSan target: 8 threads hammer the same histogram and
    // counter; every sample must be accounted for afterwards (atomic
    // conservation), with no lock in sight on the record path.
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            support::Rng rng(0xC0FFEE + t);
            for (int i = 0; i < kPerThread; ++i) {
                const double value =
                    static_cast<double>(rng.next() % 5000);
                trace::hot::observe(trace::hot::TimerQueueDepth, value);
                trace::hot::count(trace::hot::SimEvents, 1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    const auto snap = trace::hot::snapshot();
    const auto &hist = snap.histogram(trace::hot::TimerQueueDepth);
    EXPECT_EQ(hist.count,
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(snap.counter(trace::hot::SimEvents),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    std::uint64_t bucket_total = 0;
    for (const auto cell : hist.buckets)
        bucket_total += cell;
    EXPECT_EQ(bucket_total, hist.count);
}

TEST_F(HotMetricsTest, SnapshotSinceWindowsTheDelta)
{
    trace::hot::observe(trace::hot::PoolStealScan, 3.0);
    trace::hot::count(trace::hot::PoolSteals, 7);
    const auto before = trace::hot::snapshot();
    trace::hot::observe(trace::hot::PoolStealScan, 5.0);
    trace::hot::observe(trace::hot::PoolStealScan, 9.0);
    trace::hot::count(trace::hot::PoolSteals, 2);
    const auto delta = trace::hot::snapshot().since(before);
    EXPECT_EQ(delta.histogram(trace::hot::PoolStealScan).count, 2u);
    EXPECT_EQ(delta.counter(trace::hot::PoolSteals), 2u);
    EXPECT_NEAR(delta.histogram(trace::hot::PoolStealScan).sum, 14.0,
                0.1);
}

TEST_F(HotMetricsTest, NamesAreDotted)
{
    EXPECT_STREQ(trace::hot::histogramName(trace::hot::TimerQueueDepth),
                 "sim.timer.queue_depth");
    EXPECT_STREQ(trace::hot::counterName(trace::hot::SimEvents),
                 "sim.engine.events");
    const auto snap = trace::hot::snapshot();
    ASSERT_EQ(snap.histograms.size(), trace::hot::kHistogramCount);
    EXPECT_STREQ(snap.histogram(trace::hot::AllocStallNs).name,
                 "runtime.alloc.stall_ns");
}

TEST_F(HotMetricsTest, CounterAccumulatorAddIsGated)
{
    // The gate is read at add(), not at flush(): a delta added while
    // recording is off never lands, even if the gate is on by then.
    trace::hot::CounterAccumulator pauses(trace::hot::GcPauses);
    trace::hot::setEnabled(false);
    pauses.add(5);
    trace::hot::setEnabled(true);
    pauses.flush();
    EXPECT_EQ(trace::hot::snapshot().counter(trace::hot::GcPauses), 0u);
}

TEST_F(HotMetricsTest, CounterAccumulatorFlushLandsTheExactSumOnce)
{
    trace::hot::CounterAccumulator pauses(trace::hot::GcPauses);
    pauses.add(3);
    pauses.add(4);
    // Pending deltas stay local until the owner flushes.
    EXPECT_EQ(trace::hot::snapshot().counter(trace::hot::GcPauses), 0u);
    pauses.flush();
    EXPECT_EQ(trace::hot::snapshot().counter(trace::hot::GcPauses), 7u);
    // flush() clears what it landed: a second one adds nothing.
    pauses.flush();
    EXPECT_EQ(trace::hot::snapshot().counter(trace::hot::GcPauses), 7u);
}

TEST_F(HotMetricsTest, CounterAccumulatorsConserveAcrossThreads)
{
    // One accumulator per thread, as each pause protocol owns its own;
    // the flushes race on the shared cell and must lose nothing.
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            trace::hot::CounterAccumulator pauses(trace::hot::GcPauses);
            for (int i = 0; i < kPerThread; ++i) {
                pauses.add(static_cast<std::uint64_t>(t + 1));
                if (i % 1000 == 999)
                    pauses.flush();
            }
            pauses.flush();
        });
    }
    for (auto &thread : threads)
        thread.join();

    std::uint64_t expected = 0;
    for (int t = 0; t < kThreads; ++t)
        expected += static_cast<std::uint64_t>(t + 1) * kPerThread;
    EXPECT_EQ(trace::hot::snapshot().counter(trace::hot::GcPauses),
              expected);
}

} // namespace
