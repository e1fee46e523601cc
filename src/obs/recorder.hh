/**
 * @file
 * The bench-snapshot recorder: measure a registered experiment into a
 * BenchSnapshot.
 *
 * The recorder is the *generic* throughput harness the ROADMAP's
 * "commit BENCH_*.json each PR" item asks for: instead of each bench
 * body hand-rolling its own timing report, any registered experiment
 * can be measured — repeats with confidence intervals, a calibration
 * spin for machine-relative cost, the hot tier's cells/invocations/
 * sim-events deltas for throughput, and the measured cost of a
 * disabled hot-metric record.
 *
 * Test hook: `CAPO_PERF_GATE_HANDICAP_MS` (or
 * RecorderOptions::handicap_ms) injects a sleep into every timed run,
 * which is how the perf gate proves end-to-end that it detects an
 * artificial slowdown without patching any experiment body.
 */

#ifndef CAPO_OBS_RECORDER_HH
#define CAPO_OBS_RECORDER_HH

#include <string>
#include <vector>

#include "obs/snapshot.hh"

namespace capo::report {
struct Experiment;
}

namespace capo::obs {

/** How to measure (see recordExperiment()). */
struct RecorderOptions
{
    /** Snapshot label; the file convention is BENCH_<label>.json. */
    std::string label = "harness";

    /** Timed repetitions (the sample behind the CIs). */
    int repeats = 5;

    /** Measure the per-record cost of the hot tier (off/on). */
    bool measure_overhead = true;

    /** Injected per-run slowdown in ms (0 = none); the environment
     *  variable CAPO_PERF_GATE_HANDICAP_MS adds on top, so the gate's
     *  self-test can slow a run down from outside the process. */
    double handicap_ms = 0.0;

    /** Echo progress lines to stderr. */
    bool verbose = false;
};

/** Seconds for one run of the fixed calibration spin (best of 3). */
double calibrationSeconds();

/** Nanoseconds per hot-metric record with the gate off / on. */
double hotRecordNs(bool enabled);

/**
 * Measure @p experiment with @p args and return the snapshot.
 * Experiment stdout is captured (not printed); artifacts are
 * discarded; the hot tier is enabled for the duration and restored
 * after. Runs everything on the calling thread.
 */
BenchSnapshot recordExperiment(const report::Experiment &experiment,
                               const std::vector<std::string> &args,
                               const RecorderOptions &options);

} // namespace capo::obs

#endif // CAPO_OBS_RECORDER_HH
