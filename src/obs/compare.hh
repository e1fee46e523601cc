/**
 * @file
 * Snapshot comparison: the decision procedure behind the perf gate.
 *
 * Comparing two BenchSnapshots is pure arithmetic over their stats —
 * no clocks, no I/O — so the verdict logic is unit-testable with
 * synthetic inputs. The gated quantity is *normalized cost* (elapsed /
 * calibration spin), which mostly cancels machine speed: a baseline
 * committed from one host remains meaningful against a candidate
 * measured on another.
 *
 * A metric regresses only when BOTH hold (the paper's convention for
 * claiming a difference):
 *
 *   1. the 95 % confidence intervals are disjoint, and
 *   2. the mean ratio exceeds 1 + threshold.
 *
 * Either alone is noise-prone: disjoint CIs with a 1 % delta is a
 * real-but-irrelevant difference; a 30 % delta with overlapping CIs
 * is an unrepeatable measurement.
 */

#ifndef CAPO_OBS_COMPARE_HH
#define CAPO_OBS_COMPARE_HH

#include <string>
#include <vector>

#include "obs/snapshot.hh"

namespace capo::obs {

/** Outcome of one metric's baseline/candidate comparison. */
enum class Verdict {
    Ok,           ///< No significant change.
    Improvement,  ///< Significantly faster (CI-disjoint, below 1-thr).
    Regression,   ///< Significantly slower (CI-disjoint, above 1+thr).
};

/** One compared metric. */
struct MetricComparison
{
    std::string metric;
    Stat baseline;
    Stat candidate;
    double ratio = 1.0;  ///< candidate.mean / baseline.mean.
    Verdict verdict = Verdict::Ok;
    bool gating = false;  ///< Does this metric decide the exit code?
};

/** The full comparison of a candidate against its baseline. */
struct ComparisonReport
{
    /** Candidate was measured under a different (experiment, args)
     *  recipe than the baseline — the comparison is apples/oranges
     *  and the gate must fail loudly instead of judging it. */
    bool config_mismatch = false;
    std::string mismatch_detail;

    std::vector<MetricComparison> metrics;

    /** Did any gating metric regress (or the configs mismatch)? */
    bool regressed() const;
};

/** Relative slowdown (on top of CI disjointness) needed before a
 *  gating metric counts as a regression. Generous on purpose: the
 *  gate runs on shared CI machines where calibration cancels most
 *  but not all of the noise. */
constexpr double kDefaultThreshold = 0.25;

/**
 * Compare @p candidate against @p baseline. Two machine-relative
 * quantities gate: normalized cost and the normalized sim-event floor
 * (events/s x calibration seconds). Raw throughput and the watched
 * hot-histogram p99 rows (alloc stalls, cell setup; bar at 4x
 * threshold) are advisory.
 */
ComparisonReport compareSnapshots(const BenchSnapshot &baseline,
                                  const BenchSnapshot &candidate,
                                  double threshold = kDefaultThreshold);

/** Human label for a verdict ("ok" / "faster" / "REGRESSION"). */
const char *verdictLabel(Verdict verdict);

} // namespace capo::obs

#endif // CAPO_OBS_COMPARE_HH
