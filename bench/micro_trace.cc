/**
 * @file
 * Microbenchmarks of the tracing hot paths (google-benchmark). The
 * whole design rests on instrumentation being cheap enough to leave
 * compiled in: an enabled span costs a ring-buffer store, an event in
 * a disabled category costs one branch on the category mask, a null
 * sink costs one pointer test at the call site, and a disabled hot
 * counter costs one relaxed load.
 */

#include <benchmark/benchmark.h>

#include "trace/hot_metrics.hh"
#include "trace/metrics_registry.hh"
#include "trace/sink.hh"

namespace {

using namespace capo;

/** Full cost of an enabled begin/end span pair. */
void
BM_TraceSpanEnabled(benchmark::State &state)
{
    trace::TraceSink sink;
    const auto track = sink.registerTrack("bench");
    const char *name = sink.internName("work");
    double t = 0.0;
    for (auto _ : state) {
        sink.beginSpan(track, trace::Category::Sim, name, t);
        sink.endSpan(track, trace::Category::Sim, name, t + 1.0);
        t += 2.0;
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_TraceSpanEnabled);

/** An event whose category is filtered out: must be ~one branch. */
void
BM_TraceEmitFiltered(benchmark::State &state)
{
    trace::TraceSink::Options options;
    options.categories = static_cast<trace::CategoryMask>(
        trace::Category::Gc);
    trace::TraceSink sink(options);
    const auto track = sink.registerTrack("bench");
    const char *name = sink.internName("work");
    double t = 0.0;
    for (auto _ : state) {
        // Sim is not in the mask; wants() fails before any store.
        sink.instant(track, trace::Category::Sim, name, t);
        t += 1.0;
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmitFiltered);

/** The disabled-tracing pattern instrumented code uses: null sink,
 *  one pointer test. */
void
BM_TraceDisabledNullSink(benchmark::State &state)
{
    trace::TraceSink *sink = nullptr;
    benchmark::DoNotOptimize(sink);
    double t = 0.0;
    for (auto _ : state) {
        if (sink)
            sink->instant(0, trace::Category::Sim, "work", t);
        t += 1.0;
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceDisabledNullSink);

/** Counter emission (the sampler's per-probe cost). */
void
BM_TraceCounter(benchmark::State &state)
{
    trace::TraceSink sink;
    const auto track = sink.registerTrack("counters");
    const char *name = sink.internName("heap.occupied_bytes");
    double t = 0.0;
    for (auto _ : state) {
        sink.counter(track, trace::Category::Metrics, name, t, t * 2.0);
        t += 1.0;
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceCounter);

/** Histogram record: a count bump, CAS adds to the sum and the sum of
 *  squares, and the min/max checks. */
void
BM_HistogramRecord(benchmark::State &state)
{
    trace::Histogram histogram;
    double value = 1.0;
    for (auto _ : state) {
        histogram.record(value);
        value = value < 1e9 ? value * 1.001 : 1.0;
        benchmark::DoNotOptimize(histogram.count());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

/** Disabled hot-tier counter bump: one relaxed load and a branch —
 *  the price every hot-path counter pays when nobody is measuring. */
void
BM_HotCounterDisabled(benchmark::State &state)
{
    trace::hot::setEnabled(false);
    for (auto _ : state) {
        trace::hot::count(trace::hot::TimerOps, 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotCounterDisabled);

} // namespace

BENCHMARK_MAIN();
