/**
 * @file
 * Obs-layer tests: BenchSnapshot JSON round-trip through the strict
 * parser, the compare verdict arithmetic on synthetic snapshots (the
 * perf gate's decision procedure), and a recorder smoke run against a
 * real registered experiment (hence the capo_experiments link).
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "obs/compare.hh"
#include "obs/recorder.hh"
#include "obs/snapshot.hh"
#include "report/experiment.hh"
#include "trace/hot_metrics.hh"

namespace {

using namespace capo;

obs::Stat
stat(double mean, double ci95, std::size_t n = 5)
{
    obs::Stat s;
    s.mean = mean;
    s.ci95 = ci95;
    s.n = n;
    return s;
}

/** A fully populated snapshot for round-trip and compare tests. */
obs::BenchSnapshot
sampleSnapshot()
{
    obs::BenchSnapshot snapshot;
    snapshot.name = "harness";
    snapshot.experiment = "fig01_lbo_geomean";
    snapshot.args = {"--invocations", "1", "--iterations", "1"};
    snapshot.config_hash =
        obs::configHash(snapshot.experiment, snapshot.args);
    snapshot.jobs = 1;
    snapshot.hardware_threads = 8;
    snapshot.repeats = 5;
    snapshot.calibration_sec = 0.0125;
    snapshot.elapsed_sec = stat(1.5, 0.1);
    snapshot.normalized_cost = stat(120.0, 8.0);
    snapshot.cells_per_sec = stat(14.0, 0.9);
    snapshot.invocations_per_sec = stat(42.0, 2.0);
    snapshot.sim_events_per_sec = stat(1.0e6, 5.0e4);
    snapshot.hot_disabled_ns = 0.4;
    snapshot.hot_enabled_ns = 6.5;
    snapshot.hot = {{"sim.timer.queue_depth", 1000, 12.5, 8.0, 64.0}};
    return snapshot;
}

TEST(SnapshotJson, RoundTripsExactly)
{
    const obs::BenchSnapshot original = sampleSnapshot();
    const std::string text = obs::renderSnapshotJson(original);
    EXPECT_EQ(text.find("scaling"), std::string::npos);

    obs::BenchSnapshot parsed;
    std::string error;
    ASSERT_TRUE(obs::parseSnapshot(text, parsed, error)) << error;

    EXPECT_EQ(parsed.name, original.name);
    EXPECT_EQ(parsed.experiment, original.experiment);
    EXPECT_EQ(parsed.args, original.args);
    EXPECT_EQ(parsed.config_hash, original.config_hash);
    EXPECT_EQ(parsed.jobs, original.jobs);
    EXPECT_EQ(parsed.hardware_threads, original.hardware_threads);
    EXPECT_EQ(parsed.repeats, original.repeats);
    // %.17g emission: doubles survive bit-exact.
    EXPECT_EQ(parsed.calibration_sec, original.calibration_sec);
    EXPECT_EQ(parsed.elapsed_sec.mean, original.elapsed_sec.mean);
    EXPECT_EQ(parsed.elapsed_sec.ci95, original.elapsed_sec.ci95);
    EXPECT_EQ(parsed.elapsed_sec.n, original.elapsed_sec.n);
    EXPECT_EQ(parsed.normalized_cost.mean,
              original.normalized_cost.mean);
    EXPECT_EQ(parsed.sim_events_per_sec.mean,
              original.sim_events_per_sec.mean);
    EXPECT_EQ(parsed.hot_disabled_ns, original.hot_disabled_ns);
    ASSERT_EQ(parsed.hot.size(), 1u);
    EXPECT_EQ(parsed.hot[0].name, "sim.timer.queue_depth");
    EXPECT_EQ(parsed.hot[0].count, 1000u);
    EXPECT_EQ(parsed.hot[0].p99, 64.0);

    // Older snapshots carry a --jobs "scaling" array: they still parse,
    // the array is ignored, and every other field reads back the same.
    std::string with_scaling = text;
    const auto anchor = with_scaling.find("  \"hot_disabled_ns\"");
    ASSERT_NE(anchor, std::string::npos);
    with_scaling.insert(
        anchor, "  \"scaling\": [{\"jobs\": 1, \"elapsed_sec\": 1.5, "
                "\"speedup\": 1}, {\"jobs\": 2, \"elapsed_sec\": 0.8, "
                "\"speedup\": 1.875}],\n");
    obs::BenchSnapshot old_format;
    ASSERT_TRUE(obs::parseSnapshot(with_scaling, old_format, error))
        << error;
    EXPECT_EQ(obs::renderSnapshotJson(old_format), text);
}

TEST(SnapshotJson, RejectsGarbageAndWrongSchema)
{
    obs::BenchSnapshot parsed;
    std::string error;
    EXPECT_FALSE(obs::parseSnapshot("not json", parsed, error));
    EXPECT_FALSE(obs::parseSnapshot("{}", parsed, error));

    std::string text = obs::renderSnapshotJson(sampleSnapshot());
    text += "trailing";
    EXPECT_FALSE(obs::parseSnapshot(text, parsed, error));

    const std::string wrong_schema =
        "{\"schema\": 99, \"experiment\": \"x\"}";
    EXPECT_FALSE(obs::parseSnapshot(wrong_schema, parsed, error));
    EXPECT_NE(error.find("schema"), std::string::npos);
}

TEST(SnapshotJson, ConfigHashCoversNameAndArgs)
{
    const std::string base = obs::configHash("exp", {"--a", "1"});
    EXPECT_EQ(base.size(), 16u);
    EXPECT_EQ(base, obs::configHash("exp", {"--a", "1"}));
    EXPECT_NE(base, obs::configHash("exp2", {"--a", "1"}));
    EXPECT_NE(base, obs::configHash("exp", {"--a", "2"}));
    EXPECT_NE(base, obs::configHash("exp", {}));
}

TEST(Compare, NoChangeIsOk)
{
    const obs::BenchSnapshot baseline = sampleSnapshot();
    obs::BenchSnapshot candidate = baseline;
    const auto report = obs::compareSnapshots(baseline, candidate);
    EXPECT_FALSE(report.config_mismatch);
    EXPECT_FALSE(report.regressed());
    for (const auto &metric : report.metrics)
        EXPECT_EQ(metric.verdict, obs::Verdict::Ok) << metric.metric;
}

TEST(Compare, GatesOnNormalizedCostRegression)
{
    const obs::BenchSnapshot baseline = sampleSnapshot();
    obs::BenchSnapshot candidate = baseline;
    // 50 % slower with tight CIs: disjoint AND past the threshold.
    candidate.normalized_cost = stat(180.0, 8.0);
    const auto report = obs::compareSnapshots(baseline, candidate);
    EXPECT_TRUE(report.regressed());
    ASSERT_FALSE(report.metrics.empty());
    EXPECT_EQ(report.metrics.front().metric, "normalized_cost");
    EXPECT_EQ(report.metrics.front().verdict,
              obs::Verdict::Regression);
    EXPECT_TRUE(report.metrics.front().gating);
}

TEST(Compare, OverlappingIntervalsNeverRegress)
{
    const obs::BenchSnapshot baseline = sampleSnapshot();
    obs::BenchSnapshot candidate = baseline;
    // 50 % slower but the CIs overlap: an unrepeatable measurement,
    // not a verdict.
    candidate.normalized_cost = stat(180.0, 70.0);
    const auto report = obs::compareSnapshots(baseline, candidate);
    EXPECT_FALSE(report.regressed());
}

TEST(Compare, SmallSignificantDeltaIsNotARegression)
{
    const obs::BenchSnapshot baseline = sampleSnapshot();
    obs::BenchSnapshot candidate = baseline;
    // 5 % slower with razor-thin CIs: real, but below the threshold.
    candidate.normalized_cost = stat(126.0, 0.5);
    obs::BenchSnapshot tight_base = baseline;
    tight_base.normalized_cost = stat(120.0, 0.5);
    const auto report = obs::compareSnapshots(tight_base, candidate);
    EXPECT_FALSE(report.regressed());
}

TEST(Compare, ImprovementIsReportedNotFatal)
{
    const obs::BenchSnapshot baseline = sampleSnapshot();
    obs::BenchSnapshot candidate = baseline;
    candidate.normalized_cost = stat(60.0, 4.0);
    const auto report = obs::compareSnapshots(baseline, candidate);
    EXPECT_FALSE(report.regressed());
    EXPECT_EQ(report.metrics.front().verdict,
              obs::Verdict::Improvement);
}

TEST(Compare, AdvisoryMetricsNeverGate)
{
    const obs::BenchSnapshot baseline = sampleSnapshot();
    obs::BenchSnapshot candidate = baseline;
    // Harness-level throughput collapses but normalized cost and the
    // sim-event floor hold: advisory only.
    candidate.cells_per_sec = stat(2.0, 0.1);
    candidate.invocations_per_sec = stat(4.0, 0.2);
    const auto report = obs::compareSnapshots(baseline, candidate);
    EXPECT_FALSE(report.regressed());
    bool saw_regression_verdict = false;
    for (const auto &metric : report.metrics) {
        if (metric.verdict == obs::Verdict::Regression) {
            saw_regression_verdict = true;
            EXPECT_FALSE(metric.gating) << metric.metric;
        }
    }
    EXPECT_TRUE(saw_regression_verdict);
}

TEST(Compare, GatesOnNormalizedEventFloor)
{
    const obs::BenchSnapshot baseline = sampleSnapshot();
    obs::BenchSnapshot candidate = baseline;
    // Sim throughput drops 10x with machine speed (calibration)
    // unchanged: per-event cost exploded, the gate must trip.
    candidate.sim_events_per_sec = stat(1.0e5, 5.0e3);
    const auto report = obs::compareSnapshots(baseline, candidate);
    EXPECT_TRUE(report.regressed());
    bool saw = false;
    for (const auto &metric : report.metrics) {
        if (metric.metric != "normalized_events")
            continue;
        saw = true;
        EXPECT_TRUE(metric.gating);
        EXPECT_EQ(metric.verdict, obs::Verdict::Regression);
    }
    EXPECT_TRUE(saw);
}

TEST(Compare, NormalizedEventFloorCancelsMachineSpeed)
{
    const obs::BenchSnapshot baseline = sampleSnapshot();
    obs::BenchSnapshot candidate = baseline;
    // A machine half as fast: throughput halves AND the calibration
    // spin takes twice as long. The normalized floor must not trip.
    candidate.sim_events_per_sec = stat(5.0e5, 2.5e4);
    candidate.calibration_sec = baseline.calibration_sec * 2.0;
    candidate.elapsed_sec = stat(3.0, 0.2);
    const auto report = obs::compareSnapshots(baseline, candidate);
    EXPECT_FALSE(report.regressed());
}

TEST(Compare, HotTailBlowupIsReportedButAdvisory)
{
    obs::BenchSnapshot baseline = sampleSnapshot();
    baseline.hot.push_back(
        {"runtime.alloc.stall_ns", 500, 1.0e4, 8.0e3, 5.0e4});
    obs::BenchSnapshot candidate = baseline;
    // p99 blows up 20x while every mean-level metric holds: the row
    // must appear as a regression verdict without failing the gate.
    candidate.hot.back().p99 = 1.0e6;
    const auto report = obs::compareSnapshots(baseline, candidate);
    EXPECT_FALSE(report.regressed());
    bool saw = false;
    for (const auto &metric : report.metrics) {
        if (metric.metric != "runtime.alloc.stall_ns.p99")
            continue;
        saw = true;
        EXPECT_FALSE(metric.gating);
        EXPECT_EQ(metric.verdict, obs::Verdict::Regression);
    }
    EXPECT_TRUE(saw);
}

TEST(Compare, ConfigMismatchFailsLoudly)
{
    const obs::BenchSnapshot baseline = sampleSnapshot();
    obs::BenchSnapshot candidate = baseline;
    candidate.args.push_back("--full");
    candidate.config_hash =
        obs::configHash(candidate.experiment, candidate.args);
    const auto report = obs::compareSnapshots(baseline, candidate);
    EXPECT_TRUE(report.config_mismatch);
    EXPECT_TRUE(report.regressed());
    EXPECT_NE(report.mismatch_detail.find("config hash"),
              std::string::npos);
}

TEST(Compare, UnmeasuredMetricsAreSkipped)
{
    obs::BenchSnapshot baseline = sampleSnapshot();
    obs::BenchSnapshot candidate = baseline;
    baseline.cells_per_sec = stat(0.0, 0.0, 0);  // never measured
    candidate.cells_per_sec = stat(99.0, 1.0);
    const auto report = obs::compareSnapshots(baseline, candidate);
    for (const auto &metric : report.metrics) {
        if (metric.metric == "cells_per_sec") {
            EXPECT_EQ(metric.verdict, obs::Verdict::Ok);
        }
    }
}

/** The end-to-end smoke: record a real registered experiment. */
TEST(Recorder, RecordsARegisteredExperiment)
{
    const auto *experiment =
        report::ExperimentRegistry::instance().find(
            "tab01_metric_catalog");
    ASSERT_NE(experiment, nullptr);

    obs::RecorderOptions options;
    options.label = "smoke";
    options.repeats = 2;
    options.measure_overhead = false;

    const obs::BenchSnapshot snapshot =
        obs::recordExperiment(*experiment, {}, options);

    EXPECT_EQ(snapshot.experiment, "tab01_metric_catalog");
    EXPECT_EQ(snapshot.config_hash,
              obs::configHash("tab01_metric_catalog", {}));
    EXPECT_EQ(snapshot.repeats, 2);
    EXPECT_GT(snapshot.calibration_sec, 0.0);
    EXPECT_GT(snapshot.elapsed_sec.mean, 0.0);
    EXPECT_EQ(snapshot.elapsed_sec.n, 2u);
    EXPECT_GT(snapshot.normalized_cost.mean, 0.0);
    // The recorder must leave the hot tier the way it found it
    // (disabled by default in tests).
    EXPECT_FALSE(trace::hot::enabled());

    // Round-trip what the recorder produced.
    const std::string text = obs::renderSnapshotJson(snapshot);
    obs::BenchSnapshot parsed;
    std::string error;
    ASSERT_TRUE(obs::parseSnapshot(text, parsed, error)) << error;
    EXPECT_EQ(parsed.config_hash, snapshot.config_hash);
}

TEST(Recorder, HandicapSlowsTheMeasurement)
{
    // The perf gate's acceptance hinge: an injected slowdown must
    // show up in the recorded cost, deterministically.
    const auto *experiment =
        report::ExperimentRegistry::instance().find(
            "tab01_metric_catalog");
    ASSERT_NE(experiment, nullptr);

    obs::RecorderOptions fast;
    fast.repeats = 2;
    fast.measure_overhead = false;
    const obs::BenchSnapshot base =
        obs::recordExperiment(*experiment, {}, fast);

    obs::RecorderOptions slow = fast;
    slow.handicap_ms = 200.0;
    const obs::BenchSnapshot handicapped =
        obs::recordExperiment(*experiment, {}, slow);

    EXPECT_GT(handicapped.elapsed_sec.mean,
              base.elapsed_sec.mean + 0.15);
    const auto report = obs::compareSnapshots(base, handicapped);
    EXPECT_TRUE(report.regressed());
}

} // namespace
