/**
 * @file
 * Edge-case tests for the CSV exporters: empty inputs, single-event
 * recorders, degenerate smoothing windows, and golden header rows so a
 * column rename can't silently break downstream plotting scripts.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "metrics/export.hh"
#include "metrics/latency.hh"
#include "runtime/gc_event_log.hh"
#include "trace/metrics_registry.hh"

namespace capo::metrics {
namespace {

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::stringstream stream(text);
    std::string line;
    while (std::getline(stream, line))
        lines.push_back(line);
    return lines;
}

TEST(LatencyExportEdgeTest, EmptyRecorderWritesHeaderOnly)
{
    LatencyRecorder recorder;
    std::stringstream out;
    EXPECT_EQ(exportLatencyCsv(recorder, 100e6, out), 0u);
    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "intended_ns,start_ns,end_ns,intended_lat_ns,simple_ns,metered_ns");
}

TEST(LatencyExportEdgeTest, SingleEventRoundTrips)
{
    LatencyRecorder recorder;
    recorder.record(100.0, 350.0);
    std::stringstream out;
    EXPECT_EQ(exportLatencyCsv(recorder, 100e6, out), 1u);
    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[1], "100,100,350,250,250,250");
}

TEST(LatencyExportEdgeTest, ZeroWindowSelectsFullSmoothing)
{
    // window_ns = 0 must not divide by zero; it selects full smoothing.
    LatencyRecorder recorder;
    recorder.record(0.0, 10.0);
    recorder.record(100.0, 130.0);
    recorder.record(200.0, 260.0);
    std::stringstream out;
    EXPECT_EQ(exportLatencyCsv(recorder, 0.0, out), 3u);

    const auto full = recorder.meteredLatencies(0.0);
    ASSERT_EQ(full.size(), 3u);
    for (double latency : full)
        EXPECT_GE(latency, 0.0);
}

TEST(PercentileExportEdgeTest, EmptyAndHeader)
{
    std::stringstream out;
    exportPercentileCsv({}, out);
    const auto lines = splitLines(out.str());
    ASSERT_GE(lines.size(), 1u);
    EXPECT_EQ(lines[0], "percentile,latency_ms");
}

TEST(HeapTimelineExportEdgeTest, EmptyLogWritesHeaderOnly)
{
    runtime::GcEventLog log;
    std::stringstream out;
    EXPECT_EQ(exportHeapTimelineCsv(log, out), 0u);
    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0],
              "end_ns,kind,post_gc_bytes,reclaimed_bytes,traced_bytes");
}

TEST(MetricsExportEdgeTest, EmptyRegistryWritesHeaderOnly)
{
    trace::MetricsRegistry registry;
    std::stringstream out;
    EXPECT_EQ(exportMetricsCsv(registry, out), 0u);
    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "name,kind,count,min,mean,max,stddev");
}

TEST(MetricsExportEdgeTest, CounterGaugeHistogramRows)
{
    trace::MetricsRegistry registry;
    registry.counter("events").add(7.0);
    registry.gauge("level").set(0.25);
    auto &h = registry.histogram("pause");
    h.record(2.0);
    h.record(4.0);

    std::stringstream out;
    EXPECT_EQ(exportMetricsCsv(registry, out), 3u);
    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines[1], "events,counter,1,7,7,7,0");
    EXPECT_EQ(lines[2], "level,gauge,1,0.25,0.25,0.25,0");
    EXPECT_EQ(lines[3], "pause,histogram,2,2,3,4,1");
}

TEST(MetricsExportEdgeTest, UnsetGaugeReportsZeroCount)
{
    trace::MetricsRegistry registry;
    registry.gauge("never-set");
    std::stringstream out;
    EXPECT_EQ(exportMetricsCsv(registry, out), 1u);
    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[1], "never-set,gauge,0,0,0,0,0");
}

TEST(MetricsExportEdgeTest, EmptyHistogramRowIsAllZeros)
{
    trace::MetricsRegistry registry;
    registry.histogram("quiet");
    std::stringstream out;
    EXPECT_EQ(exportMetricsCsv(registry, out), 1u);
    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[1], "quiet,histogram,0,0,0,0,0");
}

} // namespace
} // namespace capo::metrics
