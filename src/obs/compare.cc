#include "obs/compare.hh"

namespace capo::obs {

namespace {

/** Judge one metric; @p lower_is_better flips the ratio sense. */
MetricComparison
judge(const std::string &metric, const Stat &baseline,
      const Stat &candidate, double threshold, bool lower_is_better,
      bool gating)
{
    MetricComparison cmp;
    cmp.metric = metric;
    cmp.baseline = baseline;
    cmp.candidate = candidate;
    cmp.gating = gating;
    cmp.ratio =
        baseline.mean > 0.0 ? candidate.mean / baseline.mean : 1.0;

    // A metric neither side measured (n == 0) can't be judged.
    if (baseline.n == 0 || candidate.n == 0)
        return cmp;
    if (!baseline.disjointFrom(candidate))
        return cmp;

    const double worse = lower_is_better ? cmp.ratio : 1.0 / cmp.ratio;
    if (worse > 1.0 + threshold)
        cmp.verdict = Verdict::Regression;
    else if (worse < 1.0 / (1.0 + threshold))
        cmp.verdict = Verdict::Improvement;
    return cmp;
}

/** @p stat with mean and CI scaled by @p factor (unit change). */
Stat
scaleStat(const Stat &stat, double factor)
{
    Stat out = stat;
    out.mean *= factor;
    out.ci95 *= factor;
    return out;
}

/** A single-sample stat (zero CI) for a point quantity such as a
 *  histogram quantile. */
Stat
pointStat(double value)
{
    Stat out;
    out.mean = value;
    out.n = 1;
    return out;
}

const HotStat *
findHot(const BenchSnapshot &snapshot, const std::string &name)
{
    for (const auto &h : snapshot.hot) {
        if (h.name == name)
            return &h;
    }
    return nullptr;
}

} // namespace

bool
ComparisonReport::regressed() const
{
    if (config_mismatch)
        return true;
    for (const auto &metric : metrics) {
        if (metric.gating && metric.verdict == Verdict::Regression)
            return true;
    }
    return false;
}

ComparisonReport
compareSnapshots(const BenchSnapshot &baseline,
                 const BenchSnapshot &candidate, double threshold)
{
    ComparisonReport report;
    if (baseline.experiment != candidate.experiment) {
        report.config_mismatch = true;
        report.mismatch_detail = "experiment '" + candidate.experiment +
                                 "' vs baseline '" +
                                 baseline.experiment + "'";
        return report;
    }
    if (baseline.config_hash != candidate.config_hash) {
        report.config_mismatch = true;
        report.mismatch_detail =
            "config hash " + candidate.config_hash + " vs baseline " +
            baseline.config_hash + " (args changed; re-record the "
            "baseline)";
        return report;
    }

    // Gating metrics are machine-relative so a committed baseline
    // survives a hardware change: normalized cost (elapsed over the
    // calibration spin) and the normalized sim-event floor (events per
    // calibration unit — the simulator's per-event cost with machine
    // speed cancelled). Raw throughput stays advisory context for the
    // human.
    report.metrics.push_back(judge(
        "normalized_cost", baseline.normalized_cost,
        candidate.normalized_cost, threshold, true, true));
    report.metrics.push_back(judge(
        "normalized_events", scaleStat(baseline.sim_events_per_sec,
                                       baseline.calibration_sec),
        scaleStat(candidate.sim_events_per_sec,
                  candidate.calibration_sec),
        threshold, false, true));
    report.metrics.push_back(judge("elapsed_sec", baseline.elapsed_sec,
                                   candidate.elapsed_sec, threshold,
                                   true, false));
    report.metrics.push_back(judge(
        "cells_per_sec", baseline.cells_per_sec,
        candidate.cells_per_sec, threshold, false, false));
    report.metrics.push_back(judge(
        "invocations_per_sec", baseline.invocations_per_sec,
        candidate.invocations_per_sec, threshold, false, false));
    report.metrics.push_back(judge(
        "sim_events_per_sec", baseline.sim_events_per_sec,
        candidate.sim_events_per_sec, threshold, false, false));

    // Advisory hot-histogram tails: a p99 blow-up in an allocation
    // stall or cell setup is exactly the latency regression a flat
    // mean hides. Tails are noisy, so the bar is 4x the threshold and
    // the rows never gate — they exist to be read.
    for (const auto *name :
         {"runtime.alloc.stall_ns", "harness.cell.setup_ns"}) {
        const HotStat *b = findHot(baseline, name);
        const HotStat *c = findHot(candidate, name);
        if (b == nullptr || c == nullptr)
            continue;
        report.metrics.push_back(judge(
            std::string(name) + ".p99",
            b->count > 0 ? pointStat(b->p99) : Stat{},
            c->count > 0 ? pointStat(c->p99) : Stat{},
            threshold * 4.0, true, false));
    }
    return report;
}

const char *
verdictLabel(Verdict verdict)
{
    switch (verdict) {
      case Verdict::Improvement:
        return "faster";
      case Verdict::Regression:
        return "REGRESSION";
      case Verdict::Ok:
        break;
    }
    return "ok";
}

} // namespace capo::obs
