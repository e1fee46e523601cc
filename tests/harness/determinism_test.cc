/**
 * @file
 * Parallel-replay determinism: any --jobs value must produce results
 * and traces bit-identical to a serial run. These tests are also the
 * ThreadSanitizer smoke target (the CI TSan job runs them).
 */

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/lbo_experiment.hh"
#include "harness/minheap.hh"
#include "harness/openloop_experiment.hh"
#include "harness/runner.hh"
#include "metrics/export.hh"
#include "trace/chrome_export.hh"
#include "trace/metrics_registry.hh"
#include "trace/sink.hh"
#include "workloads/registry.hh"

namespace capo::harness {
namespace {

ExperimentOptions
baseOptions(int jobs)
{
    ExperimentOptions options;
    options.iterations = 2;
    options.invocations = 4;
    options.time_limit_sec = 300;
    options.jobs = jobs;
    return options;
}

void
expectRunsIdentical(const runtime::ExecutionResult &a,
                    const runtime::ExecutionResult &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.oom, b.oom);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.wall, b.wall);  // bitwise, not approximate
    EXPECT_EQ(a.cpu, b.cpu);
    EXPECT_EQ(a.mutator_cpu, b.mutator_cpu);
    EXPECT_EQ(a.gc_cpu, b.gc_cpu);
    EXPECT_EQ(a.total_allocated, b.total_allocated);
    EXPECT_EQ(a.collections, b.collections);
    EXPECT_EQ(a.stall_count, b.stall_count);
    EXPECT_EQ(a.dispatches, b.dispatches);
    EXPECT_EQ(a.timed.wall, b.timed.wall);
    EXPECT_EQ(a.timed.cpu, b.timed.cpu);
    EXPECT_EQ(a.timed.stw_wall, b.timed.stw_wall);
    EXPECT_EQ(a.timed.stw_cpu, b.timed.stw_cpu);
    ASSERT_EQ(a.iterations.size(), b.iterations.size());
    for (std::size_t i = 0; i < a.iterations.size(); ++i) {
        EXPECT_EQ(a.iterations[i].wall_begin, b.iterations[i].wall_begin);
        EXPECT_EQ(a.iterations[i].wall_end, b.iterations[i].wall_end);
    }
}

TEST(DeterminismTest, InvocationSetBitIdenticalAcrossJobs)
{
    const auto &fop = workloads::byName("fop");
    Runner serial(baseOptions(1));
    Runner parallel(baseOptions(8));
    const auto a = serial.run(fop, gc::Algorithm::G1, 2.0);
    const auto b = parallel.run(fop, gc::Algorithm::G1, 2.0);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i)
        expectRunsIdentical(a.runs[i], b.runs[i]);
}

TEST(DeterminismTest, LboTablesIdenticalAcrossJobsAllCollectors)
{
    // The full production-collector set (all five), exported to the
    // CSV stat table: the serial and 8-way tables must match byte for
    // byte.
    LboSweepOptions sweep;
    sweep.factors = {2.0, 3.0};
    sweep.collectors = gc::productionCollectors();
    sweep.base = baseOptions(1);
    sweep.base.invocations = 2;
    ASSERT_EQ(sweep.collectors.size(), 5u);

    const auto &fop = workloads::byName("fop");
    const auto serial = runLboSweep(fop, sweep);

    sweep.base.jobs = 8;
    const auto parallel = runLboSweep(fop, sweep);

    EXPECT_EQ(serial.dispatches, parallel.dispatches);
    for (auto algorithm : sweep.collectors) {
        const std::string name = gc::algorithmName(algorithm);
        for (double factor : sweep.factors) {
            EXPECT_EQ(serial.completedAt(name, factor),
                      parallel.completedAt(name, factor));
        }
    }

    std::stringstream a, b;
    metrics::exportLboCsv(serial.analysis, a);
    metrics::exportLboCsv(parallel.analysis, b);
    EXPECT_EQ(a.str(), b.str());
}

/** The bit pattern of @p value, so -0.0 vs 0.0 and NaNs compare
 *  exactly. */
std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

TEST(DeterminismTest, SuiteLboCurveIdenticalAcrossJobs)
{
    // Figure 1's aggregation step: per-workload sweeps folded into
    // one geomean curve per collector must not depend on --jobs.
    LboSweepOptions sweep;
    sweep.factors = {2.0, 3.0};
    sweep.collectors = gc::productionCollectors();
    sweep.base = baseOptions(1);
    sweep.base.invocations = 2;

    const auto curve = [&sweep](int jobs) {
        LboSweepOptions options = sweep;
        options.base.jobs = jobs;
        std::vector<WorkloadLbo> per_workload;
        for (const char *name : {"fop", "luindex"})
            per_workload.push_back(
                runLboSweep(workloads::byName(name), options));
        return aggregateSuiteLbo(per_workload, options);
    };
    const auto serial = curve(1);
    const auto parallel = curve(8);

    ASSERT_EQ(serial.size(),
              sweep.collectors.size() * sweep.factors.size());
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const auto &a = serial[i];
        const auto &b = parallel[i];
        EXPECT_EQ(a.collector, b.collector);
        EXPECT_EQ(bitsOf(a.factor), bitsOf(b.factor));
        EXPECT_EQ(a.plotted, b.plotted);
        EXPECT_EQ(a.completed, b.completed);
        EXPECT_EQ(bitsOf(a.wall_geomean), bitsOf(b.wall_geomean))
            << a.collector << " @ " << a.factor;
        EXPECT_EQ(bitsOf(a.cpu_geomean), bitsOf(b.cpu_geomean))
            << a.collector << " @ " << a.factor;
    }
}

TEST(DeterminismTest, MinHeapGridIdenticalAcrossJobs)
{
    const std::vector<std::string> workloads = {"fop", "luindex"};
    const std::vector<gc::Algorithm> collectors = {
        gc::Algorithm::Serial, gc::Algorithm::G1};

    auto options = baseOptions(1);
    options.invocations = 1;
    const auto serial =
        findMinHeapGrid(workloads, collectors, options, 0.05);

    options.jobs = 8;
    const auto parallel =
        findMinHeapGrid(workloads, collectors, options, 0.05);

    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        EXPECT_EQ(serial.cells[i].workload, parallel.cells[i].workload);
        EXPECT_EQ(serial.cells[i].result.min_heap_mb,
                  parallel.cells[i].result.min_heap_mb);
        EXPECT_EQ(serial.cells[i].result.probes,
                  parallel.cells[i].result.probes);
        EXPECT_EQ(serial.cells[i].result.converged,
                  parallel.cells[i].result.converged);
    }
}

void
expectSinksIdentical(const trace::TraceSink &a, const trace::TraceSink &b)
{
    ASSERT_EQ(a.trackCount(), b.trackCount());
    for (trace::TrackId t = 0; t < a.trackCount(); ++t) {
        EXPECT_EQ(a.trackName(t), b.trackName(t));
        const auto ea = a.events(t);
        const auto eb = b.events(t);
        ASSERT_EQ(ea.size(), eb.size()) << "track " << a.trackName(t);
        for (std::size_t i = 0; i < ea.size(); ++i) {
            EXPECT_STREQ(ea[i].name, eb[i].name);
            EXPECT_EQ(ea[i].ts, eb[i].ts);
            EXPECT_EQ(ea[i].value, eb[i].value);
            EXPECT_EQ(ea[i].cat, eb[i].cat);
            EXPECT_EQ(ea[i].kind, eb[i].kind);
        }
    }
}

TEST(DeterminismTest, ParallelTraceIsIdenticalToSerialTrace)
{
    const auto &fop = workloads::byName("fop");

    trace::TraceSink serial_sink, parallel_sink;
    auto serial_options = baseOptions(1);
    serial_options.trace = &serial_sink;
    auto parallel_options = baseOptions(8);
    parallel_options.trace = &parallel_sink;

    Runner(serial_options).run(fop, gc::Algorithm::G1, 2.0);
    Runner(parallel_options).run(fop, gc::Algorithm::G1, 2.0);

    expectSinksIdentical(serial_sink, parallel_sink);
}

TEST(DeterminismTest, MetricsCsvIdenticalAcrossJobs)
{
    // A traced two-cell sweep: at --jobs 8 both cells sample at once,
    // so a column that kept whichever sample landed last (the retired
    // `last`) or sums taken in landing order varied run to run.
    const auto metricsCsv = [](int jobs) {
        trace::MetricsRegistry registry;
        trace::TraceSink sink;
        LboSweepOptions sweep;
        sweep.factors = {2.0};
        sweep.collectors = {gc::Algorithm::Serial, gc::Algorithm::G1};
        sweep.base = baseOptions(jobs);
        sweep.base.invocations = 1;
        sweep.base.trace = &sink;
        sweep.base.metrics = &registry;
        runLboSweep(workloads::byName("fop"), sweep);
        sink.recordSamples(registry);
        std::stringstream out;
        metrics::exportMetricsCsv(registry, out);
        return out.str();
    };
    const std::string serial = metricsCsv(1);
    EXPECT_NE(serial.find("heap.occupied_bytes,histogram"),
              std::string::npos);
    EXPECT_EQ(serial, metricsCsv(8));
}

TEST(DeterminismTest, TracedOpenLoopSweepIdenticalAcrossJobs)
{
    // Open-loop cells run side by side, each into its own shard merged
    // in cell order: the timeline and the metric samples must not
    // depend on which cell finished first.
    const auto sweepInto = [](int jobs, trace::TraceSink &sink) {
        trace::MetricsRegistry registry;
        OpenLoopSweepOptions sweep;
        sweep.load_factors = {0.5, 1.2};
        sweep.collectors = {gc::Algorithm::G1};
        sweep.modes = {"closed", "static"};
        sweep.base = baseOptions(jobs);
        sweep.base.trace = &sink;
        sweep.base.metrics = &registry;
        runOpenLoopSweep({"jme"}, sweep);
        sink.recordSamples(registry);
        std::stringstream out;
        metrics::exportMetricsCsv(registry, out);
        return out.str();
    };
    trace::TraceSink serial_sink, parallel_sink;
    const std::string serial = sweepInto(1, serial_sink);
    EXPECT_NE(serial.find("heap.occupied_bytes,histogram"),
              std::string::npos);
    EXPECT_EQ(serial, sweepInto(8, parallel_sink));
    expectSinksIdentical(serial_sink, parallel_sink);
}

TEST(DeterminismTest, WarmPoolsMatchFreshConstruction)
{
    // Dirty-reuse trap for the per-worker pools (arena, world,
    // collector, memoized setup, shard freelist): a cell run on warm
    // pools — right after a *different* cell, and then right after
    // itself — must be bitwise identical to the same cell run with
    // every cache cleared. Results and trace shards both count.
    const auto &fop = workloads::byName("fop");
    const auto &luindex = workloads::byName("luindex");
    auto options = baseOptions(1);
    options.invocations = 2;

    // Fresh-construction baseline for the probed cell.
    clearWorkerCaches();
    trace::TraceSink fresh_sink;
    auto fresh_options = options;
    fresh_options.trace = &fresh_sink;
    const auto fresh =
        Runner(fresh_options).run(luindex, gc::Algorithm::Zgc, 2.0);

    // Dirty the pools with an unrelated cell, then re-run the probed
    // cell twice: the first reuse crosses cells, the second reuses
    // state its own previous run left behind.
    clearWorkerCaches();
    {
        trace::TraceSink scratch_sink;
        auto warm_options = options;
        warm_options.trace = &scratch_sink;
        Runner(warm_options).run(fop, gc::Algorithm::G1, 3.0);
    }
    for (int round = 0; round < 2; ++round) {
        trace::TraceSink warm_sink;
        auto warm_options = options;
        warm_options.trace = &warm_sink;
        const auto warm = Runner(warm_options)
                              .run(luindex, gc::Algorithm::Zgc, 2.0);
        ASSERT_EQ(fresh.runs.size(), warm.runs.size());
        for (std::size_t i = 0; i < fresh.runs.size(); ++i)
            expectRunsIdentical(fresh.runs[i], warm.runs[i]);
        expectSinksIdentical(fresh_sink, warm_sink);
    }

    // And the same cell fanned out on warm pool workers (j8) must
    // still match the fresh serial baseline.
    trace::TraceSink parallel_sink;
    auto parallel_options = baseOptions(8);
    parallel_options.invocations = 2;
    parallel_options.trace = &parallel_sink;
    const auto parallel = Runner(parallel_options)
                              .run(luindex, gc::Algorithm::Zgc, 2.0);
    ASSERT_EQ(fresh.runs.size(), parallel.runs.size());
    for (std::size_t i = 0; i < fresh.runs.size(); ++i)
        expectRunsIdentical(fresh.runs[i], parallel.runs[i]);
    expectSinksIdentical(fresh_sink, parallel_sink);
    clearWorkerCaches();
}

TEST(DeterminismTest, ParallelTraceExportIsNestedAndMonotonic)
{
    const auto &fop = workloads::byName("fop");
    trace::TraceSink sink;
    auto options = baseOptions(8);
    options.trace = &sink;
    Runner(options).run(fop, gc::Algorithm::G1, 2.0);

    // Harness track: one well-nested span per invocation, laid end to
    // end in invocation order.
    trace::TrackId harness_track = 0;
    bool found = false;
    for (trace::TrackId t = 0; t < sink.trackCount(); ++t) {
        if (sink.trackName(t) == "harness") {
            harness_track = t;
            found = true;
        }
    }
    ASSERT_TRUE(found);
    const auto events = sink.events(harness_track);
    int depth = 0;
    int spans = 0;
    double last_ts = 0.0;
    for (const auto &e : events) {
        EXPECT_GE(e.ts, last_ts) << "harness timeline must be monotonic";
        last_ts = e.ts;
        if (e.kind == trace::EventKind::SpanBegin)
            ++depth;
        if (e.kind == trace::EventKind::SpanEnd) {
            --depth;
            ++spans;
        }
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(spans, options.invocations);

    // Every invocation label appears in order.
    int next_inv = 0;
    for (const auto &e : events) {
        if (e.kind == trace::EventKind::SpanBegin) {
            const std::string label =
                "fop/G1 inv" + std::to_string(next_inv++);
            EXPECT_EQ(std::string(e.name), label);
        }
    }

    // The Chrome exporter (which sorts globally) accepts the merged
    // timeline.
    std::stringstream out;
    EXPECT_GT(trace::writeChromeTrace(sink, out), 0u);
}

} // namespace
} // namespace capo::harness
