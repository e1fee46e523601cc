/**
 * @file
 * Behavioural tests for the five collector models (plus GenZGC).
 *
 * These check the *mechanisms* each design is defined by: STW pauses
 * and their telemetry, concurrent cycles, pacing/stalling under
 * allocation pressure, out-of-memory detection, compressed-pointer
 * footprint, and the qualitative cost relationships the paper's
 * analysis rests on.
 */

#include <gtest/gtest.h>

#include "gc/factory.hh"
#include "runtime/execution.hh"

namespace capo::gc {
namespace {

runtime::ExecutionConfig
config(double heap_mb, double survivor = 0.03)
{
    runtime::ExecutionConfig c;
    c.cpus = 32.0;
    c.heap_bytes = heap_mb * 1024.0 * 1024.0;
    c.survivor_fraction = survivor;
    c.survivor_reference_bytes = heap_mb * 1024.0 * 1024.0 * 0.5;
    c.seed = 11;
    c.time_limit_sec = 400;
    c.keep_gc_log = true;
    return c;
}

runtime::MutatorPlan
plan(double seconds = 1.0, double alloc_gb = 2.0, double width = 8.0)
{
    runtime::MutatorPlan p;
    p.iterations = 2;
    p.width = width;
    p.work_per_iteration = seconds * 1e9 * width;
    p.alloc_per_iteration = alloc_gb * 1e9;
    return p;
}

heap::LiveSetModel
live(double mb)
{
    heap::LiveSetModel m;
    m.base_bytes = mb * 1024.0 * 1024.0;
    m.buildup_fraction = 0.05;
    return m;
}

runtime::ExecutionResult
run(Algorithm algorithm, const runtime::ExecutionConfig &cfg,
    const runtime::MutatorPlan &p, const heap::LiveSetModel &l,
    double footprint = 1.3)
{
    auto collector = makeCollector(algorithm, footprint);
    return runtime::runExecution(cfg, p, l, *collector);
}

class AllCollectors : public ::testing::TestWithParam<Algorithm>
{
};

TEST_P(AllCollectors, CompletesWithGenerousHeap)
{
    const auto result = run(GetParam(), config(256.0), plan(), live(20.0));
    EXPECT_TRUE(result.completed) << algorithmName(GetParam());
    EXPECT_FALSE(result.oom);
    EXPECT_GT(result.collections, 0u);
    EXPECT_GT(result.gc_cpu, 0.0);
}

TEST_P(AllCollectors, PauseTelemetryIsConsistent)
{
    const auto result = run(GetParam(), config(128.0), plan(), live(20.0));
    ASSERT_TRUE(result.completed);
    const auto &log = result.log;
    EXPECT_GT(log.pauseCount(), 0u);
    // Pause CPU is bounded by pause wall x machine width.
    EXPECT_LE(log.stwCpu(), log.stwWall() * 32.0 * (1.0 + 1e-9));
    // STW wall is bounded by total wall.
    EXPECT_LE(log.stwWall(), result.wall);
    // Every recorded cycle reclaimed something or retained survivors.
    for (const auto &c : log.cycles())
        EXPECT_GE(c.reclaimed + c.post_gc_bytes, 0.0);
}

TEST_P(AllCollectors, ReportsOomWellBelowLiveSet)
{
    // 20 MB of live data cannot fit an 16 MB heap under any design.
    const auto result = run(GetParam(), config(16.0), plan(), live(20.0));
    EXPECT_FALSE(result.completed);
    EXPECT_TRUE(result.oom) << algorithmName(GetParam());
}

TEST_P(AllCollectors, SmallerHeapsCollectMoreOften)
{
    const auto tight = run(GetParam(), config(64.0), plan(), live(20.0));
    const auto roomy = run(GetParam(), config(512.0), plan(), live(20.0));
    ASSERT_TRUE(tight.completed);
    ASSERT_TRUE(roomy.completed);
    EXPECT_GT(tight.collections, roomy.collections);
    EXPECT_GE(tight.gc_cpu, roomy.gc_cpu * 0.9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllCollectors,
    ::testing::ValuesIn(allCollectors()),
    [](const ::testing::TestParamInfo<Algorithm> &info) {
        std::string name = algorithmName(info.param);
        for (auto &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(SerialTest, PausesAreSingleThreaded)
{
    const auto result =
        run(Algorithm::Serial, config(96.0), plan(), live(20.0));
    ASSERT_TRUE(result.completed);
    // Width-1 pauses: pause CPU ~= pause wall (minus the TTSP slice,
    // during which the collector burns no CPU).
    EXPECT_LE(result.log.stwCpu(),
              result.log.stwWall() * (1.0 + 1e-9));
    EXPECT_GT(result.log.stwCpu(), result.log.stwWall() * 0.5);
}

TEST(ParallelTest, ShorterPausesThanSerialSameCpuOrder)
{
    const auto serial =
        run(Algorithm::Serial, config(96.0), plan(), live(20.0));
    const auto parallel =
        run(Algorithm::Parallel, config(96.0), plan(), live(20.0));
    ASSERT_TRUE(serial.completed && parallel.completed);
    // Parallelism shortens the total pause wall time.
    EXPECT_LT(parallel.log.stwWall(), serial.log.stwWall());
    // ...but not the CPU burned per unit of collection work; Parallel
    // spends at least as much GC CPU as Serial.
    EXPECT_GE(parallel.gc_cpu, serial.gc_cpu * 0.9);
}

TEST(G1Test, RunsConcurrentMarkingAndMixedPauses)
{
    // High occupancy (live close to IHOP) forces marking cycles.
    const auto result =
        run(Algorithm::G1, config(64.0), plan(1.0, 4.0), live(30.0));
    ASSERT_TRUE(result.completed);
    bool saw_concurrent = false;
    bool saw_mixed = false;
    for (const auto &p : result.log.phases()) {
        saw_concurrent |= p.phase == runtime::GcPhase::Concurrent;
        saw_mixed |= p.phase == runtime::GcPhase::MixedPause;
    }
    EXPECT_TRUE(saw_concurrent);
    EXPECT_TRUE(saw_mixed);
}

TEST(ConcurrentTest, CyclesBracketedByShortPauses)
{
    const auto result =
        run(Algorithm::Zgc, config(128.0), plan(), live(30.0));
    ASSERT_TRUE(result.completed);
    std::size_t init = 0, final = 0, conc = 0;
    for (const auto &p : result.log.phases()) {
        init += p.phase == runtime::GcPhase::InitPause;
        final += p.phase == runtime::GcPhase::FinalPause;
        conc += p.phase == runtime::GcPhase::Concurrent;
    }
    EXPECT_GT(conc, 0u);
    EXPECT_EQ(init, conc);
    EXPECT_EQ(init, final);
    // Concurrent designs keep pauses far below STW designs.
    const auto parallel =
        run(Algorithm::Parallel, config(128.0), plan(), live(30.0));
    EXPECT_LT(result.log.maxPause(), parallel.log.maxPause());
}

TEST(ConcurrentTest, ZgcStallsWhenAllocationOutrunsReclamation)
{
    // Small heap + fast allocation: cycles cannot keep up.
    const auto result =
        run(Algorithm::Zgc, config(48.0), plan(0.5, 8.0), live(20.0));
    ASSERT_TRUE(result.completed);
    EXPECT_GT(result.stall_count, 0u);
    EXPECT_GT(result.log.stallWall(), 0.0);
}

TEST(ConcurrentTest, ShenandoahPacesInsteadOfPausing)
{
    const auto shen = run(Algorithm::Shenandoah, config(48.0),
                          plan(0.5, 8.0), live(20.0));
    ASSERT_TRUE(shen.completed);
    // Pacing throttles mutators: wall stretches well beyond the
    // no-pressure configuration.
    const auto roomy = run(Algorithm::Shenandoah, config(512.0),
                           plan(0.5, 8.0), live(20.0));
    ASSERT_TRUE(roomy.completed);
    EXPECT_GT(shen.wall, roomy.wall * 1.2);
}

TEST(ZgcTest, FootprintRaisesMinimumHeap)
{
    // With footprint 1.6, a 34 MB heap holds only 21 MB logical: the
    // 20 MB live set plus reserve no longer fits where Serial would.
    const auto zgc =
        run(Algorithm::Zgc, config(34.0), plan(), live(20.0), 1.6);
    const auto serial =
        run(Algorithm::Serial, config(34.0), plan(), live(20.0), 1.6);
    EXPECT_TRUE(serial.completed);
    EXPECT_FALSE(zgc.completed);
}

TEST(ZgcTest, FootprintDoesNotApplyToCompressedCollectors)
{
    auto serial = makeCollector(Algorithm::Serial, 1.6);
    auto g1 = makeCollector(Algorithm::G1, 1.6);
    auto zgc = makeCollector(Algorithm::Zgc, 1.6);
    EXPECT_DOUBLE_EQ(serial->footprintFactor(), 1.0);
    EXPECT_DOUBLE_EQ(g1->footprintFactor(), 1.0);
    EXPECT_DOUBLE_EQ(zgc->footprintFactor(), 1.6);
}

TEST(GenZgcTest, YoungCyclesCheapenCollectionForBigLiveSets)
{
    // Large live set, moderate allocation: generational cycles avoid
    // re-tracing the whole live set every time.
    const auto zgc = run(Algorithm::Zgc, config(512.0),
                         plan(1.0, 3.0), live(160.0), 1.0);
    const auto gen = run(Algorithm::GenZgc, config(512.0),
                         plan(1.0, 3.0), live(160.0), 1.0);
    ASSERT_TRUE(zgc.completed && gen.completed);
    EXPECT_LT(gen.gc_cpu, zgc.gc_cpu);
}

TEST(FactoryTest, NamesRoundTrip)
{
    const auto parse = [](const std::string &name) {
        Algorithm out = Algorithm::Serial;
        EXPECT_TRUE(tryAlgorithmFromName(name, out)) << name;
        return out;
    };
    for (auto algorithm : allCollectors())
        EXPECT_EQ(parse(algorithmName(algorithm)), algorithm);
    EXPECT_EQ(parse("shenandoah"), Algorithm::Shenandoah);
    EXPECT_EQ(parse("ZGC*"), Algorithm::Zgc);
}

TEST(FactoryTest, ProductionSetMatchesPaperLegend)
{
    const auto production = productionCollectors();
    ASSERT_EQ(production.size(), 5u);
    auto serial = makeCollector(production[0]);
    auto zgc = makeCollector(production[4]);
    EXPECT_EQ(serial->introducedYear(), 1998);
    EXPECT_EQ(zgc->introducedYear(), 2018);
}

TEST(TuningTest, BarrierTaxOrderingMatchesDesigns)
{
    // Concurrent designs carry the heaviest barriers; STW the least.
    EXPECT_LT(serialTuning().barrier_factor,
              g1Tuning().barrier_factor);
    EXPECT_LT(g1Tuning().barrier_factor,
              zgcTuning().barrier_factor);
    EXPECT_LT(zgcTuning().barrier_factor,
              shenandoahTuning().barrier_factor);
}

} // namespace
} // namespace capo::gc
