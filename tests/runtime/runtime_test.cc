/**
 * @file
 * Tests for the managed-runtime layer: GC event log, world control,
 * mutator execution and the execution orchestrator (with a trivial
 * always-grant collector).
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "runtime/execution.hh"
#include "runtime/gc_event_log.hh"
#include "runtime/mutator.hh"
#include "runtime/world.hh"

namespace capo::runtime {
namespace {

TEST(GcEventLogTest, PhaseAccounting)
{
    GcEventLog log;
    auto t1 = log.beginPhase(100.0, GcPhase::YoungPause);
    log.endPhase(t1, 150.0, 400.0);
    auto t2 = log.beginPhase(200.0, GcPhase::Concurrent);
    log.endPhase(t2, 300.0, 800.0);
    auto t3 = log.beginPhase(400.0, GcPhase::FullPause);
    log.endPhase(t3, 480.0, 160.0);

    EXPECT_DOUBLE_EQ(log.stwWall(), 50.0 + 80.0);
    EXPECT_DOUBLE_EQ(log.stwCpu(), 400.0 + 160.0);
    EXPECT_DOUBLE_EQ(log.totalGcCpu(), 1360.0);
    EXPECT_DOUBLE_EQ(log.maxPause(), 80.0);
    EXPECT_EQ(log.pauseCount(), 2u);
    EXPECT_EQ(log.stwIntervals().size(), 2u);
}

TEST(GcEventLogTest, WindowedQueriesClipProportionally)
{
    GcEventLog log;
    auto t = log.beginPhase(100.0, GcPhase::YoungPause);
    log.endPhase(t, 200.0, 1000.0);

    EXPECT_DOUBLE_EQ(log.stwWall(0.0, 150.0), 50.0);
    EXPECT_DOUBLE_EQ(log.stwCpu(0.0, 150.0), 500.0);
    EXPECT_DOUBLE_EQ(log.stwWall(150.0, -1.0), 50.0);
    EXPECT_DOUBLE_EQ(log.stwWall(500.0, 900.0), 0.0);
}

TEST(GcEventLogTest, OverlappingPhasesAreSupported)
{
    GcEventLog log;
    auto conc = log.beginPhase(0.0, GcPhase::Concurrent);
    auto young = log.beginPhase(10.0, GcPhase::YoungPause);
    log.endPhase(young, 20.0, 50.0);
    log.endPhase(conc, 100.0, 300.0);
    EXPECT_DOUBLE_EQ(log.stwWall(), 10.0);
    EXPECT_DOUBLE_EQ(log.totalGcCpu(), 350.0);
}

TEST(GcEventLogTest, StallAccounting)
{
    GcEventLog log;
    log.recordStall(10.0, 30.0);
    log.recordStall(50.0, 55.0);
    EXPECT_DOUBLE_EQ(log.stallWall(), 25.0);
    EXPECT_EQ(log.stallCount(), 2u);
}

TEST(GcEventLogTest, TimedWindowSumsThePausesInsideIt)
{
    GcEventLog log;
    log.endPhase(log.beginPhase(0.0, GcPhase::YoungPause), 10.0, 30.0);
    log.openTimedWindow();  // at t = 10, as the pause closes
    const auto conc = log.beginPhase(12.0, GcPhase::Concurrent);
    log.endPhase(log.beginPhase(20.0, GcPhase::YoungPause), 20.0, 7.0);
    log.endPhase(log.beginPhase(30.0, GcPhase::FullPause), 45.0, 90.0);
    log.endPhase(conc, 60.0, 500.0);
    log.closeTimedWindow();  // at t = 70
    log.endPhase(log.beginPhase(70.0, GcPhase::YoungPause), 80.0, 40.0);

    // The zero-length pause adds no CPU; the concurrent phase none.
    EXPECT_EQ(log.timedStwWall(), 15.0);
    EXPECT_EQ(log.timedStwCpu(), 90.0);
    EXPECT_EQ(log.timedStwWall(), log.stwWall(10.0, 70.0));
    EXPECT_EQ(log.timedStwCpu(), log.stwCpu(10.0, 70.0));
}

TEST(GcEventLogTest, RecordFreeLogKeepsOnlyOpenPhases)
{
    GcEventLog log(/*keep_records=*/false);
    log.openTimedWindow();
    // A young pause nested in concurrent marking, the case where a
    // closed phase must wait under an open one.
    const auto conc = log.beginPhase(0.0, GcPhase::Concurrent);
    const auto young = log.beginPhase(10.0, GcPhase::YoungPause);
    log.endPhase(conc, 15.0, 300.0);
    log.endPhase(young, 20.0, 50.0);
    const auto full = log.beginPhase(30.0, GcPhase::FullPause);
    EXPECT_EQ(full, 0u) << "closed phases were not dropped";
    log.endPhase(full, 40.0, 80.0);
    log.recordCycle(CycleRecord{});
    log.recordStall(50.0, 55.0);
    log.closeTimedWindow();

    EXPECT_EQ(log.timedStwWall(), 20.0);
    EXPECT_EQ(log.timedStwCpu(), 130.0);
    EXPECT_EQ(log.stallWall(), 5.0);
    EXPECT_EQ(log.stallCount(), 1u);
    // Every record query refuses (pause_protocol_test checks them all
    // on a real run).
    EXPECT_THROW(log.cycles(), std::logic_error);
}

/** Collector that always grants (a "perfect" GC). */
class GrantAllCollector : public CollectorRuntime
{
  public:
    std::string_view name() const override { return "grant-all"; }
    int introducedYear() const override { return 0; }
    double barrierFactor() const override { return 1.0; }

    void
    attach(const CollectorContext &context) override
    {
        heap_ = context.heap;
    }

    AllocResponse
    request(double bytes) override
    {
        if (!heap_->canFit(bytes))
            heap_->collectFull();
        if (!heap_->canFit(bytes))
            return AllocResponse::oom();
        heap_->fill(bytes);
        return AllocResponse::granted();
    }

    void shutdown() override {}

  private:
    heap::HeapSpace *heap_ = nullptr;
};

ExecutionConfig
smallConfig()
{
    ExecutionConfig config;
    config.cpus = 8.0;
    config.heap_bytes = 64e6;
    config.survivor_fraction = 0.05;
    config.seed = 7;
    return config;
}

MutatorPlan
smallPlan()
{
    MutatorPlan plan;
    plan.iterations = 3;
    plan.work_per_iteration = 1e8;  // 100 ms of CPU
    plan.alloc_per_iteration = 100e6;
    plan.width = 2.0;
    plan.warmup_multipliers = {1.5, 1.1, 1.0};
    return plan;
}

heap::LiveSetModel
smallLive()
{
    heap::LiveSetModel live;
    live.base_bytes = 10e6;
    live.buildup_fraction = 0.1;
    return live;
}

TEST(ExecutionTest, CompletesAndRecordsIterations)
{
    GrantAllCollector collector;
    const auto result = runExecution(smallConfig(), smallPlan(),
                                     smallLive(), collector);
    EXPECT_TRUE(result.completed);
    EXPECT_FALSE(result.oom);
    ASSERT_EQ(result.iterations.size(), 3u);

    // Warmup: first iteration strictly slower than the last.
    EXPECT_GT(result.iterations[0].wall(),
              result.iterations[2].wall());

    // Work accounting: total mutator CPU = sum of warmup multipliers
    // x per-iteration work.
    const double expected = 1e8 * (1.5 + 1.1 + 1.0);
    EXPECT_NEAR(result.mutator_cpu, expected, expected * 1e-9);

    // The timed slice covers the final iteration.
    EXPECT_NEAR(result.timed.wall, result.iterations.back().wall(),
                1e-6);
    EXPECT_DOUBLE_EQ(result.timed.stw_wall, 0.0);
    EXPECT_EQ(result.stall_count, 0u);
    EXPECT_NEAR(result.total_allocated, 300e6, 1.0);
}

TEST(ExecutionTest, NoiseIsSeedDeterministic)
{
    auto config = smallConfig();
    auto plan = smallPlan();
    plan.noise_stddev = 0.05;

    GrantAllCollector c1, c2, c3;
    const auto a = runExecution(config, plan, smallLive(), c1);
    const auto b = runExecution(config, plan, smallLive(), c2);
    config.seed = 8;
    const auto c = runExecution(config, plan, smallLive(), c3);

    EXPECT_DOUBLE_EQ(a.wall, b.wall);
    EXPECT_NE(a.wall, c.wall);
}

TEST(ExecutionTest, OomAbortsTheRun)
{
    auto config = smallConfig();
    config.heap_bytes = 8e6;  // below the 10 MB live set
    GrantAllCollector collector;
    const auto result = runExecution(config, smallPlan(), smallLive(),
                                     collector);
    EXPECT_FALSE(result.completed);
    EXPECT_TRUE(result.oom);
}

TEST(ExecutionTest, TimeLimitMarksTimeout)
{
    auto config = smallConfig();
    config.time_limit_sec = 0.05;  // 50 ms of sim time, run needs more
    GrantAllCollector collector;
    const auto result = runExecution(config, smallPlan(), smallLive(),
                                     collector);
    EXPECT_FALSE(result.completed);
    EXPECT_TRUE(result.timed_out);
}

TEST(ExecutionTest, RateTimelineCoversRunWhenTraced)
{
    auto config = smallConfig();
    config.trace_rate = true;
    GrantAllCollector collector;
    const auto result = runExecution(config, smallPlan(), smallLive(),
                                     collector);
    ASSERT_FALSE(result.rate_timeline.empty());
    // The integral of rate x width over the timeline equals mutator
    // CPU time.
    double integral = 0.0;
    for (const auto &seg : result.rate_timeline)
        integral += (seg.end - seg.begin) * seg.rate;
    EXPECT_NEAR(integral * 2.0 /* width */, result.mutator_cpu,
                result.mutator_cpu * 1e-6);
}

TEST(WorldTest, StopAndResumeToggleFreeze)
{
    sim::Engine engine(4.0);
    World world(engine);

    class Spinner : public sim::Agent
    {
      public:
        std::string_view name() const override { return "spin"; }
        sim::Action
        resume(sim::Engine &) override
        {
            return sim::Action::compute(1e9);
        }
    };
    Spinner spinner;
    const auto id = engine.addAgent(&spinner);
    world.addMutator(id);

    EXPECT_FALSE(world.stopped());
    world.stopTheWorld();
    EXPECT_TRUE(world.stopped());
    EXPECT_TRUE(engine.frozen(id));
    world.resumeTheWorld();
    EXPECT_FALSE(engine.frozen(id));
}

} // namespace
} // namespace capo::runtime
