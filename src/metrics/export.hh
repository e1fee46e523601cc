/**
 * @file
 * Offline-analysis exports.
 *
 * DaCapo optionally saves the complete latency data to file for
 * offline analysis; capo mirrors that: raw latency events, percentile
 * curves, LBO series and footprint summaries all dump to CSV so the
 * paper's figures can be re-plotted with external tooling.
 */

#ifndef CAPO_METRICS_EXPORT_HH
#define CAPO_METRICS_EXPORT_HH

#include <functional>
#include <ostream>
#include <string>

#include "metrics/footprint.hh"
#include "metrics/latency.hh"
#include "metrics/lbo.hh"
#include "runtime/gc_event_log.hh"
#include "trace/metrics_registry.hh"

namespace capo::metrics {

/**
 * Write raw latency events (start, end, simple, metered) to CSV, one
 * row per event in LatencyRecorder::eventsByStart() order: ascending
 * start, with rows of tied starts in recording order.
 *
 * @param window_ns Metered smoothing window (0 = full smoothing).
 * @return Rows written.
 */
std::size_t exportLatencyCsv(const LatencyRecorder &recorder,
                             double window_ns, std::ostream &out);

/** Write a percentile curve (percentile, latency_ms) to CSV. */
std::size_t exportPercentileCsv(const std::vector<double> &latencies,
                                std::ostream &out);

/**
 * Write an LBO analysis (collector, factor, wall, cpu overheads and
 * raw costs) to CSV.
 */
std::size_t exportLboCsv(const LboAnalysis &analysis, std::ostream &out);

/** Write collector cycle telemetry (the post-GC heap series). */
std::size_t exportHeapTimelineCsv(const runtime::GcEventLog &log,
                                  std::ostream &out);

/**
 * Write a metrics-registry summary (one row per counter, gauge or
 * histogram) to CSV: count, min, mean, max and stddev. Counters and
 * gauges report their value as min, mean and max. No column depends
 * on the order concurrent cells recorded in, so the file is the same
 * at any --jobs.
 */
std::size_t exportMetricsCsv(const trace::MetricsRegistry &registry,
                             std::ostream &out);

/** Open @p path for writing; fatal with a clear message on failure. */
void writeCsvFile(const std::string &path,
                  const std::function<void(std::ostream &)> &writer);

} // namespace capo::metrics

#endif // CAPO_METRICS_EXPORT_HH
