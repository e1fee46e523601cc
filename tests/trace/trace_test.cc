/**
 * @file
 * Tests for the tracing subsystem: TraceSink semantics, the metrics
 * registry, Chrome trace-event export (including a real JSON parse
 * with span-nesting and monotonicity checks), and an end-to-end run
 * cross-checking trace spans against the GcEventLog.
 */

#include <gtest/gtest.h>

#include "testutil/json.hh"

#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "metrics/export.hh"
#include "runtime/gc_event_log.hh"
#include "trace/chrome_export.hh"
#include "trace/metrics_registry.hh"
#include "trace/sink.hh"
#include "workloads/registry.hh"

namespace capo::trace {
namespace {

using testutil::JsonParser;
using testutil::JsonValue;

// ---------------------------------------------------------------------
// TraceSink semantics.

TEST(TraceSinkTest, RecordsTypedEventsOnTracks)
{
    TraceSink sink;
    const auto track = sink.registerTrack("t");
    sink.beginSpan(track, Category::Sim, "work", 10.0);
    sink.instant(track, Category::Sim, "tick", 15.0, 7.0);
    sink.counter(track, Category::Metrics, "bytes", 18.0, 42.0);
    sink.endSpan(track, Category::Sim, "work", 20.0);

    const auto events = sink.events(track);
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].kind, EventKind::SpanBegin);
    EXPECT_EQ(events[1].kind, EventKind::Instant);
    EXPECT_DOUBLE_EQ(events[1].value, 7.0);
    EXPECT_EQ(events[2].kind, EventKind::Counter);
    EXPECT_DOUBLE_EQ(events[2].value, 42.0);
    EXPECT_EQ(events[3].kind, EventKind::SpanEnd);
    EXPECT_DOUBLE_EQ(events[3].ts, 20.0);
    EXPECT_EQ(sink.eventCount(), 4u);
    EXPECT_EQ(sink.droppedEvents(), 0u);
}

TEST(TraceSinkTest, CategoryFilterDropsDisabledEvents)
{
    TraceSink::Options options;
    options.categories = static_cast<CategoryMask>(Category::Gc);
    TraceSink sink(options);
    EXPECT_TRUE(sink.wants(Category::Gc));
    EXPECT_FALSE(sink.wants(Category::Sim));
    EXPECT_FALSE(sink.wants(Category::Metrics));

    const auto track = sink.registerTrack("t");
    sink.beginSpan(track, Category::Sim, "run", 1.0);
    sink.counter(track, Category::Metrics, "x", 2.0, 3.0);
    sink.beginSpan(track, Category::Gc, "young", 4.0);
    EXPECT_EQ(sink.events(track).size(), 1u);
    EXPECT_STREQ(sink.events(track)[0].name, "young");
    // Filtered events are not "dropped": they were never wanted.
    EXPECT_EQ(sink.droppedEvents(), 0u);
}

TEST(TraceSinkTest, RingOverwritesOldestAndCountsDrops)
{
    TraceSink::Options options;
    options.track_capacity = 4;
    TraceSink sink(options);
    const auto track = sink.registerTrack("t");
    for (int i = 0; i < 10; ++i)
        sink.instant(track, Category::Sim, "e", static_cast<double>(i));

    const auto events = sink.events(track);
    ASSERT_EQ(events.size(), 4u);
    // Oldest retained first: 6, 7, 8, 9.
    for (int i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(events[i].ts, 6.0 + i);
    EXPECT_EQ(sink.droppedEvents(), 6u);
}

TEST(TraceSinkTest, RegisterTrackIsIdempotent)
{
    TraceSink sink;
    const auto a = sink.registerTrack("gc");
    const auto b = sink.registerTrack("harness");
    EXPECT_NE(a, b);
    EXPECT_EQ(sink.registerTrack("gc"), a);
    EXPECT_EQ(sink.trackCount(), 2u);
    EXPECT_EQ(sink.trackName(a), "gc");
}

TEST(TraceSinkTest, InternNameReturnsStablePointer)
{
    TraceSink sink;
    const char *a = sink.internName("g1 @ 2x");
    // Force reallocation pressure; deque storage must not move names.
    for (int i = 0; i < 100; ++i)
        sink.internName("filler-" + std::to_string(i));
    const char *b = sink.internName("g1 @ 2x");
    EXPECT_EQ(a, b);
    EXPECT_STREQ(a, "g1 @ 2x");
}

TEST(TraceSinkTest, TimeBaseShiftsRelativeEmittersOnly)
{
    TraceSink sink;
    const auto track = sink.registerTrack("t");
    sink.setTimeBase(1000.0);
    sink.beginSpan(track, Category::Sim, "a", 5.0);
    sink.beginSpanAbs(track, Category::Harness, "b", 5.0);
    const auto events = sink.events(track);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_DOUBLE_EQ(events[0].ts, 1005.0);
    EXPECT_DOUBLE_EQ(events[1].ts, 5.0);
    EXPECT_DOUBLE_EQ(sink.timeBase(), 1000.0);
}

TEST(TraceSinkTest, ParseCategoriesSpecs)
{
    const auto parseCategories = [](const std::string &spec) {
        CategoryMask mask = 0;
        std::string error;
        EXPECT_TRUE(tryParseCategories(spec, mask, error)) << error;
        return mask;
    };
    EXPECT_EQ(parseCategories("all"), kAllCategories);
    EXPECT_EQ(parseCategories("none"), 0u);
    EXPECT_EQ(parseCategories("gc"),
              static_cast<CategoryMask>(Category::Gc));
    EXPECT_EQ(parseCategories(" sim , harness "),
              static_cast<CategoryMask>(Category::Sim) |
                  static_cast<CategoryMask>(Category::Harness));
    EXPECT_EQ(parseCategories("gc,gc"),
              static_cast<CategoryMask>(Category::Gc));
}

// ---------------------------------------------------------------------
// MetricsRegistry.

TEST(MetricsRegistryTest, CountersGaugesAndLookup)
{
    MetricsRegistry registry;
    registry.counter("allocs").add(3.0);
    registry.counter("allocs").increment();
    registry.gauge("occupancy").set(0.5);

    EXPECT_DOUBLE_EQ(registry.counter("allocs").value(), 4.0);
    EXPECT_DOUBLE_EQ(registry.gauge("occupancy").value(), 0.5);
    EXPECT_TRUE(registry.gauge("occupancy").everSet());
    EXPECT_TRUE(registry.contains("allocs"));
    EXPECT_FALSE(registry.contains("missing"));
    EXPECT_EQ(registry.size(), 2u);

    // Registration order is preserved for reports.
    ASSERT_EQ(registry.entries().size(), 2u);
    EXPECT_EQ(registry.entries()[0].name, "allocs");
    EXPECT_EQ(registry.entries()[1].name, "occupancy");
}

TEST(MetricsRegistryTest, HistogramSummaryStatistics)
{
    MetricsRegistry registry;
    auto &h = registry.histogram("pause");
    for (double v : {1.0, 2.0, 3.0, 4.0})
        h.record(v);

    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 10.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 4.0);
    EXPECT_DOUBLE_EQ(h.mean(), 2.5);
    EXPECT_NEAR(h.stddev(), 1.118, 1e-3);
}

TEST(MetricsRegistryTest, HistogramQuantilesAreBucketApproximate)
{
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(static_cast<double>(i));
    // Log-bucketed: ~ +/- 15 % accuracy is the contract.
    EXPECT_NEAR(h.quantile(0.5), 500.0, 500.0 * 0.16);
    EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 * 0.16);
    EXPECT_NEAR(h.quantile(1.0), 1000.0, 1000.0 * 0.16);
    EXPECT_LE(h.quantile(1.0), 1000.0);
    // Quantiles clamp into the observed range.
    EXPECT_GE(h.quantile(0.0), 1.0);
}

TEST(MetricsRegistryTest, HistogramHandlesZeroAndEmpty)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    h.record(0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
}

// ---------------------------------------------------------------------
// Chrome export.

TEST(ChromeExportTest, EmitsParsableJsonWithThreadNames)
{
    TraceSink sink;
    const auto a = sink.registerTrack("alpha");
    const auto b = sink.registerTrack("beta \"quoted\"");
    sink.beginSpan(a, Category::Sim, "run", 2000.0);
    sink.endSpan(a, Category::Sim, "run", 5000.0);
    sink.instant(b, Category::Gc, "trigger", 3000.0, 9.0);
    sink.counter(b, Category::Metrics, "heap", 4000.0, 123.0);

    std::stringstream out;
    const auto written = writeChromeTrace(sink, out);
    EXPECT_EQ(written, 4u);

    JsonValue root;
    ASSERT_TRUE(JsonParser(out.str()).parse(root));
    ASSERT_EQ(root.type, JsonValue::Type::Object);
    EXPECT_EQ(root.at("displayTimeUnit").text, "ms");

    const auto &events = root.at("traceEvents");
    ASSERT_EQ(events.type, JsonValue::Type::Array);
    // 2 metadata + 4 events.
    ASSERT_EQ(events.items.size(), 6u);

    std::map<double, std::string> names_by_tid;
    for (const auto &e : events.items) {
        if (e.at("ph").text == "M") {
            EXPECT_EQ(e.at("name").text, "thread_name");
            names_by_tid[e.at("tid").number] =
                e.at("args").at("name").text;
        }
    }
    ASSERT_EQ(names_by_tid.size(), 2u);
    EXPECT_EQ(names_by_tid[1], "alpha");
    EXPECT_EQ(names_by_tid[2], "beta \"quoted\"");

    // Events are sorted by timestamp (microseconds).
    std::vector<double> stamps;
    for (const auto &e : events.items) {
        if (e.at("ph").text != "M")
            stamps.push_back(e.at("ts").number);
    }
    ASSERT_EQ(stamps.size(), 4u);
    EXPECT_DOUBLE_EQ(stamps.front(), 2.0);  // 2000 ns -> 2 us
    for (std::size_t i = 1; i < stamps.size(); ++i)
        EXPECT_GE(stamps[i], stamps[i - 1]);

    // Payloads survive the round trip.
    for (const auto &e : events.items) {
        if (e.at("ph").text == "C") {
            EXPECT_DOUBLE_EQ(e.at("args").at("value").number, 123.0);
        }
        if (e.at("ph").text == "i") {
            EXPECT_DOUBLE_EQ(e.at("args").at("value").number, 9.0);
        }
    }
}

TEST(ChromeExportTest, EmptySinkStillProducesValidJson)
{
    TraceSink sink;
    std::stringstream out;
    EXPECT_EQ(writeChromeTrace(sink, out), 0u);
    JsonValue root;
    ASSERT_TRUE(JsonParser(out.str()).parse(root));
    EXPECT_EQ(root.at("traceEvents").items.size(), 0u);
}

// ---------------------------------------------------------------------
// GcEventLog forwarding (regression: pause spans == PauseRecords).

TEST(GcEventLogTraceTest, PhaseWindowsForwardAsSpans)
{
    TraceSink sink;
    const auto pauses = sink.registerTrack("gc");
    const auto conc = sink.registerTrack("gc/concurrent");
    runtime::GcEventLog log;
    log.attachTrace(&sink, pauses, conc);

    const auto young = log.beginPhase(100.0, runtime::GcPhase::YoungPause);
    log.endPhase(young, 150.0, 40.0);
    const auto mark = log.beginPhase(200.0, runtime::GcPhase::Concurrent);
    const auto full = log.beginPhase(300.0, runtime::GcPhase::FullPause);
    log.endPhase(full, 400.0, 90.0);
    log.endPhase(mark, 500.0, 10.0);
    log.traceInstant("trigger-young", 90.0, 1234.0);

    const auto stw = sink.events(pauses);
    ASSERT_EQ(stw.size(), 5u);  // 2 pauses * B/E + instant
    EXPECT_STREQ(stw[0].name, "young");
    EXPECT_EQ(stw[0].kind, EventKind::SpanBegin);
    EXPECT_DOUBLE_EQ(stw[0].ts, 100.0);
    EXPECT_STREQ(stw[1].name, "young");
    EXPECT_EQ(stw[1].kind, EventKind::SpanEnd);
    EXPECT_DOUBLE_EQ(stw[1].ts, 150.0);
    EXPECT_STREQ(stw[2].name, "full");
    EXPECT_STREQ(stw[4].name, "trigger-young");
    EXPECT_DOUBLE_EQ(stw[4].value, 1234.0);

    const auto concurrent = sink.events(conc);
    ASSERT_EQ(concurrent.size(), 2u);
    EXPECT_STREQ(concurrent[0].name, "concurrent");
    EXPECT_DOUBLE_EQ(concurrent[0].ts, 200.0);
    EXPECT_DOUBLE_EQ(concurrent[1].ts, 500.0);

    // Spans agree 1:1 with the log's own records.
    const auto &phases = log.phases();
    ASSERT_EQ(phases.size(), 3u);
    EXPECT_DOUBLE_EQ(phases[0].begin, 100.0);
    EXPECT_DOUBLE_EQ(phases[0].end, 150.0);
}

TEST(GcEventLogTraceTest, DetachedLogEmitsNothing)
{
    runtime::GcEventLog log;
    log.traceInstant("trigger-young", 10.0);  // must not crash
    const auto t = log.beginPhase(1.0, runtime::GcPhase::YoungPause);
    log.endPhase(t, 2.0, 0.5);
    EXPECT_EQ(log.phases().size(), 1u);
}

// ---------------------------------------------------------------------
// End to end: a real benchmark run produces a coherent trace.

struct Span
{
    std::string name;
    double begin = 0.0;
    double end = 0.0;
};

/** Extract completed spans from one track's B/E event stream,
 *  asserting stack discipline as it goes. */
std::vector<Span>
extractSpans(const std::vector<TraceEvent> &events)
{
    std::vector<Span> spans;
    std::vector<Span> stack;
    for (const auto &e : events) {
        if (e.kind == EventKind::SpanBegin) {
            stack.push_back(Span{e.name, e.ts, 0.0});
        } else if (e.kind == EventKind::SpanEnd) {
            EXPECT_FALSE(stack.empty()) << "unmatched end: " << e.name;
            if (stack.empty())
                continue;
            EXPECT_EQ(stack.back().name, e.name) << "interleaved spans";
            Span s = stack.back();
            stack.pop_back();
            s.end = e.ts;
            EXPECT_LE(s.begin, s.end);
            spans.push_back(s);
        }
    }
    EXPECT_TRUE(stack.empty()) << "unclosed spans remain";
    return spans;
}

class TracedRunTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        harness::ExperimentOptions options;
        options.iterations = 3;
        options.invocations = 1;
        options.time_limit_sec = 300;
        options.trace = &sink_;
        options.metrics = &registry_;
        options.metrics_interval_ms = 5.0;

        harness::Runner runner(options);
        const auto &fop = workloads::byName("fop");
        run_ = runner.runOnce(fop, gc::Algorithm::G1,
                              2.0 * fop.gc.gmd_mb, 0);
        ASSERT_TRUE(run_.usable());
        sink_.recordSamples(registry_);
    }

    TrackId
    trackByName(const std::string &name)
    {
        for (TrackId t = 0; t < sink_.trackCount(); ++t) {
            if (sink_.trackName(t) == name)
                return t;
        }
        ADD_FAILURE() << "no track named " << name;
        return 0;
    }

    bool
    hasTrackPrefixed(const std::string &prefix)
    {
        for (TrackId t = 0; t < sink_.trackCount(); ++t) {
            if (sink_.trackName(t).rfind(prefix, 0) == 0)
                return true;
        }
        return false;
    }

    TraceSink sink_;
    MetricsRegistry registry_;
    runtime::ExecutionResult run_;
};

TEST_F(TracedRunTest, RegistersExpectedTracks)
{
    EXPECT_TRUE(hasTrackPrefixed("mutator#"));
    EXPECT_TRUE(hasTrackPrefixed("gc"));
    trackByName("gc");
    trackByName("gc/concurrent");
    trackByName("mutator");
    trackByName("harness");
    trackByName("counters");
    trackByName("pacing");
}

TEST_F(TracedRunTest, PauseSpansMatchGcEventLog)
{
    const auto spans = extractSpans(sink_.events(trackByName("gc")));
    std::vector<const runtime::PauseRecord *> stw;
    for (const auto &p : run_.log.phases()) {
        if (runtime::isStwPhase(p.phase))
            stw.push_back(&p);
    }
    ASSERT_GT(stw.size(), 0u) << "fop/G1 at 2x should collect";
    ASSERT_EQ(spans.size(), stw.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].name, runtime::phaseName(stw[i]->phase));
        EXPECT_DOUBLE_EQ(spans[i].begin, stw[i]->begin);
        EXPECT_DOUBLE_EQ(spans[i].end, stw[i]->end);
    }
}

TEST_F(TracedRunTest, MutatorTrackCarriesIterationSpans)
{
    const auto spans =
        extractSpans(sink_.events(trackByName("mutator")));
    std::size_t iterations = 0;
    for (const auto &s : spans)
        iterations += s.name == "iteration";
    EXPECT_EQ(iterations, run_.iterations.size());
}

TEST_F(TracedRunTest, HarnessTrackCarriesInvocationSpan)
{
    const auto spans =
        extractSpans(sink_.events(trackByName("harness")));
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_NE(std::string(spans[0].name).find("fop/G1"),
              std::string::npos);
    EXPECT_DOUBLE_EQ(spans[0].begin, 0.0);
    EXPECT_DOUBLE_EQ(spans[0].end, run_.wall);
    // The next invocation would start after a gap.
    EXPECT_GT(sink_.timeBase(), run_.wall);
}

TEST_F(TracedRunTest, CountersSampleHeapOccupancy)
{
    const auto events = sink_.events(trackByName("counters"));
    std::size_t occupancy_samples = 0;
    for (const auto &e : events) {
        ASSERT_EQ(e.kind, EventKind::Counter);
        if (std::string(e.name) == "heap.occupied_bytes") {
            ++occupancy_samples;
            EXPECT_GE(e.value, 0.0);
        }
    }
    EXPECT_GT(occupancy_samples, 10u);

    // The same samples fed the registry histograms.
    ASSERT_TRUE(registry_.contains("heap.occupied_bytes"));
    const auto &h = registry_.histogram("heap.occupied_bytes");
    EXPECT_EQ(h.count(), occupancy_samples);
    EXPECT_GT(h.max(), 0.0);
    ASSERT_TRUE(registry_.contains("agents.runnable"));
    ASSERT_TRUE(registry_.contains("gc.cpu_ns"));
}

TEST_F(TracedRunTest, ExportedJsonIsValidNestedAndMonotonic)
{
    std::stringstream out;
    const auto written = writeChromeTrace(sink_, out);
    EXPECT_GT(written, 0u);

    JsonValue root;
    ASSERT_TRUE(JsonParser(out.str()).parse(root));
    const auto &events = root.at("traceEvents");
    ASSERT_EQ(events.type, JsonValue::Type::Array);

    double last_ts = -1.0;
    std::map<double, std::vector<std::string>> stacks;
    for (const auto &e : events.items) {
        const std::string ph = e.at("ph").text;
        if (ph == "M")
            continue;
        const double ts = e.at("ts").number;
        EXPECT_GE(ts, last_ts) << "timestamps must be monotonic";
        last_ts = ts;
        auto &stack = stacks[e.at("tid").number];
        if (ph == "B") {
            stack.push_back(e.at("name").text);
        } else if (ph == "E") {
            ASSERT_FALSE(stack.empty());
            EXPECT_EQ(stack.back(), e.at("name").text);
            stack.pop_back();
        }
    }
    for (const auto &[tid, stack] : stacks)
        EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
}

TEST_F(TracedRunTest, MetricsCsvSummarizesRegistry)
{
    std::stringstream out;
    const auto rows = metrics::exportMetricsCsv(registry_, out);
    EXPECT_EQ(rows, registry_.size());
    const std::string text = out.str();
    EXPECT_EQ(text.find("name,kind,count,min,mean,max,stddev\n"), 0u);
    EXPECT_NE(text.find("heap.occupied_bytes,histogram"),
              std::string::npos);
}

TEST(TracedRunOverheadTest, DisabledTracingChangesNothing)
{
    harness::ExperimentOptions options;
    options.iterations = 2;
    options.invocations = 1;
    options.time_limit_sec = 300;

    harness::Runner runner(options);
    const auto &fop = workloads::byName("fop");
    const auto plain = runner.runOnce(fop, gc::Algorithm::Serial,
                                      2.0 * fop.gc.gmd_mb, 0);

    TraceSink sink;
    auto traced_options = options;
    traced_options.trace = &sink;
    traced_options.metrics_interval_ms = 0.0;  // no sampler agent
    harness::Runner traced_runner(traced_options);
    const auto traced = traced_runner.runOnce(
        fop, gc::Algorithm::Serial, 2.0 * fop.gc.gmd_mb, 0);

    // Tracing observes; it must not perturb the simulation.
    ASSERT_TRUE(plain.usable());
    ASSERT_TRUE(traced.usable());
    EXPECT_DOUBLE_EQ(plain.wall, traced.wall);
    EXPECT_DOUBLE_EQ(plain.cpu, traced.cpu);
    EXPECT_EQ(plain.log.pauseCount(), traced.log.pauseCount());
    EXPECT_GT(sink.eventCount(), 0u);
}

} // namespace
} // namespace capo::trace
