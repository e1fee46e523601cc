#include "harness/latency_experiment.hh"

#include "metrics/latency.hh"
#include "metrics/summary.hh"
#include "report/codec.hh"
#include "support/rng.hh"
#include "workloads/registry.hh"

namespace capo::harness {

namespace {

/** Journal fields: ok, then the six quantiles as exact doubles. (The
 *  strict field-count check below means journals written before the
 *  arrival-stamped column simply miss and re-run.) */
std::vector<std::string>
encodeCell(const LatencyCell &cell)
{
    return {cell.ok ? "1" : "0",
            report::encodeDouble(cell.p50_ns),
            report::encodeDouble(cell.p99_ns),
            report::encodeDouble(cell.p999_ns),
            report::encodeDouble(cell.intended_p99_ns),
            report::encodeDouble(cell.metered_p50_ns),
            report::encodeDouble(cell.metered_p999_ns)};
}

bool
decodeCell(const std::vector<std::string> &fields, LatencyCell &cell)
{
    if (fields.size() != 7)
        return false;
    cell.ok = fields[0] == "1";
    return report::decodeDouble(fields[1], cell.p50_ns) &&
           report::decodeDouble(fields[2], cell.p99_ns) &&
           report::decodeDouble(fields[3], cell.p999_ns) &&
           report::decodeDouble(fields[4], cell.intended_p99_ns) &&
           report::decodeDouble(fields[5], cell.metered_p50_ns) &&
           report::decodeDouble(fields[6], cell.metered_p999_ns);
}

} // namespace

std::string
latencyCellKey(const std::string &workload,
               const std::string &collector, double factor)
{
    return "latency/" + workload + "/" + collector + "/" +
           report::encodeDouble(factor);
}

LatencySweep
runLatencySweep(const std::vector<std::string> &workload_names,
                const LatencySweepOptions &options)
{
    LatencySweep sweep;

    ExperimentOptions run_options = options.base;
    run_options.invocations = 1;
    run_options.trace_rate = true;
    Runner runner(run_options);

    CheckpointJournal *journal = options.journal;
    // Summaries restore; raw request logs cannot (the journal holds
    // quantiles only), so want_raw re-runs every cell while still
    // extending the journal for summary-only resumes.
    const bool restore = journal != nullptr && !options.want_raw;

    for (const auto &name : workload_names) {
        const auto &workload = workloads::byName(name);
        for (double factor : options.factors) {
            for (auto algorithm : options.collectors) {
                LatencyCell cell;
                cell.workload = name;
                cell.collector = gc::algorithmName(algorithm);
                cell.factor = factor;
                const std::string key =
                    latencyCellKey(name, cell.collector, factor);

                std::vector<std::string> fields;
                if (restore && journal->lookup(key, fields) &&
                    decodeCell(fields, cell)) {
                    cell.restored = true;
                    ++sweep.restored_cells;
                    sweep.cells.push_back(std::move(cell));
                    continue;
                }
                cell.restored = false;

                const auto set =
                    runner.run(workload, algorithm, factor);
                if (set.allCompleted()) {
                    const auto &run = set.runs.front();
                    const auto &timed = run.iterations.back();
                    cell.requests = metrics::synthesizeRequests(
                        run.rate_timeline, run.baseline_rate,
                        workload.requests, timed.wall_begin,
                        timed.wall_end,
                        support::Rng(run_options.base_seed));
                    // Each view is built once and moved into one
                    // selection pass over all of its quantiles.
                    const auto simple = metrics::quantiles(
                        cell.requests.simpleLatencies(),
                        {0.5, 0.99, 0.999});
                    const auto metered = metrics::quantiles(
                        cell.requests.meteredLatencies(
                            options.metered_window_ns),
                        {0.5, 0.999});
                    cell.ok = true;
                    cell.have_raw = true;
                    cell.p50_ns = simple[0];
                    cell.p99_ns = simple[1];
                    cell.p999_ns = simple[2];
                    cell.intended_p99_ns = metrics::quantile(
                        cell.requests.intendedLatencies(), 0.99);
                    cell.metered_p50_ns = metered[0];
                    cell.metered_p999_ns = metered[1];
                }
                if (journal != nullptr)
                    journal->append(key, encodeCell(cell));
                sweep.cells.push_back(std::move(cell));
            }
        }
    }
    return sweep;
}

} // namespace capo::harness
