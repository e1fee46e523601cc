#include "harness/openloop_experiment.hh"

#include <algorithm>

#include "exec/parallel_for.hh"
#include "exec/pool.hh"
#include "load/driver.hh"
#include "metrics/request_synth.hh"
#include "metrics/summary.hh"
#include "report/codec.hh"
#include "support/rng.hh"
#include "workloads/registry.hh"

namespace capo::harness {

namespace {

/** Journal fields: ok, then ten exact doubles (quantiles, goodput,
 *  utility, shed, mean pace). The digest is deliberately excluded —
 *  it exists for determinism tests, not resumes. */
std::vector<std::string>
encodeCell(const OpenLoopCell &cell)
{
    return {cell.ok ? "1" : "0",
            report::encodeDouble(cell.arrival_p50_ns),
            report::encodeDouble(cell.arrival_p99_ns),
            report::encodeDouble(cell.arrival_p999_ns),
            report::encodeDouble(cell.service_p50_ns),
            report::encodeDouble(cell.service_p99_ns),
            report::encodeDouble(cell.service_p999_ns),
            report::encodeDouble(cell.goodput_rps),
            report::encodeDouble(cell.utility),
            report::encodeDouble(cell.shed),
            report::encodeDouble(cell.mean_pace)};
}

bool
decodeCell(const std::vector<std::string> &fields, OpenLoopCell &cell)
{
    if (fields.size() != 11)
        return false;
    cell.ok = fields[0] == "1";
    return report::decodeDouble(fields[1], cell.arrival_p50_ns) &&
           report::decodeDouble(fields[2], cell.arrival_p99_ns) &&
           report::decodeDouble(fields[3], cell.arrival_p999_ns) &&
           report::decodeDouble(fields[4], cell.service_p50_ns) &&
           report::decodeDouble(fields[5], cell.service_p99_ns) &&
           report::decodeDouble(fields[6], cell.service_p999_ns) &&
           report::decodeDouble(fields[7], cell.goodput_rps) &&
           report::decodeDouble(fields[8], cell.utility) &&
           report::decodeDouble(fields[9], cell.shed) &&
           report::decodeDouble(fields[10], cell.mean_pace);
}

/** Fill a cell's quantile block from the two latency views, each
 *  built once, and return the sum of the arrival-stamped latencies
 *  (the numerator of the utility's mean latency). */
double
fillQuantiles(const metrics::LatencyRecorder &recorder,
              OpenLoopCell &cell)
{
    auto arrival = recorder.intendedLatencies();
    double latency_sum = 0.0;
    for (double l : arrival)
        latency_sum += l;
    const auto arrival_q =
        metrics::quantiles(std::move(arrival), {0.5, 0.99, 0.999});
    const auto service_q = metrics::quantiles(recorder.simpleLatencies(),
                                              {0.5, 0.99, 0.999});
    cell.arrival_p50_ns = arrival_q[0];
    cell.arrival_p99_ns = arrival_q[1];
    cell.arrival_p999_ns = arrival_q[2];
    cell.service_p50_ns = service_q[0];
    cell.service_p99_ns = service_q[1];
    cell.service_p999_ns = service_q[2];
    return latency_sum;
}

/** Score a finished cell with the shared utility yardstick. */
void
scoreCell(double completed, double latency_sum_ns, double window_ns,
          const load::PacerConfig &pacer, OpenLoopCell &cell)
{
    const double window_sec = window_ns / 1e9;
    cell.goodput_rps =
        window_sec > 0.0 ? completed / window_sec : 0.0;
    const double mean_latency =
        completed > 0.0 ? latency_sum_ns / completed : 0.0;
    cell.utility =
        load::pacingUtility(cell.goodput_rps, mean_latency, pacer);
}

/** The per-cell injection rate: factor 1.0 saturates the lanes. */
double
cellRatePerSec(const OpenLoopSweepOptions &options, double factor)
{
    return factor * options.lanes * 1e9 / options.service_mean_ns;
}

void
runClosedCell(const workloads::Descriptor &workload,
              gc::Algorithm algorithm, double heap_mb,
              const OpenLoopSweepOptions &options, OpenLoopCell &cell,
              std::uint64_t *dispatches)
{
    ExperimentOptions run_options = options.base;
    run_options.invocations = 1;
    run_options.trace_rate = true;
    Runner runner(run_options);
    const auto run = runner.runOnce(workload, algorithm, heap_mb, 0);
    *dispatches += run.dispatches;
    if (!run.usable())
        return;
    const auto &timed = run.iterations.back();

    // Post-hoc open-loop replay over the measured rate timeline: the
    // traffic never fed back into the run (that is the point of the
    // "closed" mode).
    workloads::RequestProfile profile = workload.requests;
    profile.lanes = options.lanes;
    const auto recorder = metrics::synthesizeOpenLoopRequests(
        run.rate_timeline, run.baseline_rate, profile,
        timed.wall_begin, timed.wall_end,
        cellRatePerSec(options, cell.load_factor),
        options.service_mean_ns,
        support::Rng(options.base.base_seed));
    if (recorder.empty())
        return;
    cell.ok = true;
    const double latency_sum = fillQuantiles(recorder, cell);
    scoreCell(static_cast<double>(recorder.size()), latency_sum,
              timed.wall_end - timed.wall_begin, options.pacer, cell);
}

void
runLiveCell(const workloads::Descriptor &workload,
            gc::Algorithm algorithm, double heap_mb, bool adaptive,
            const OpenLoopSweepOptions &options, OpenLoopCell &cell,
            std::uint64_t *dispatches)
{
    load::OpenLoopConfig config;
    config.arrival = options.arrival;
    config.arrival.rate_per_sec =
        cellRatePerSec(options, cell.load_factor);
    config.lanes = options.lanes;
    config.service_mean_ns = options.service_mean_ns;
    config.service_sigma = workload.requests.service_sigma;
    config.heavy_tail_fraction = workload.requests.heavy_tail_fraction;
    config.heavy_tail_scale = workload.requests.heavy_tail_scale;
    config.queue_limit = options.queue_limit;
    config.adaptive_pacing = adaptive;
    config.pacer = options.pacer;
    load::OpenLoopDriver driver(config);

    ExperimentOptions run_options = options.base;
    run_options.invocations = 1;
    Runner runner(run_options);
    const auto run =
        runner.runOnce(workload, algorithm, heap_mb, 0, &driver);
    *dispatches += run.dispatches;
    if (!run.usable() || driver.completed() == 0)
        return;
    cell.ok = true;
    const double latency_sum = fillQuantiles(driver.requests(), cell);
    scoreCell(static_cast<double>(driver.completed()), latency_sum,
              run.wall, options.pacer, cell);
    cell.shed = static_cast<double>(driver.shedCount());
    if (adaptive && driver.pacer() != nullptr) {
        cell.mean_pace = driver.pacer()->meanRate();
        cell.pacer_digest =
            load::encodePacerDecisions(driver.pacer()->decisions());
    }
}

} // namespace

std::string
openLoopCellKey(const std::string &workload,
                const std::string &collector, const std::string &mode,
                double factor)
{
    return "openloop/" + workload + "/" + collector + "/" + mode +
           "/" + report::encodeDouble(factor);
}

OpenLoopSweep
runOpenLoopSweep(const std::vector<std::string> &workload_names,
                 const OpenLoopSweepOptions &options)
{
    OpenLoopSweep sweep;
    CheckpointJournal *journal = options.journal;

    // Grid in print order; each cell is independent, so the sweep
    // fans out like the LBO grid (per-cell Runner and driver, cell
    // seeds a pure function of coordinates).
    for (const auto &name : workload_names) {
        for (auto algorithm : options.collectors) {
            for (const auto &mode : options.modes) {
                for (double factor : options.load_factors) {
                    OpenLoopCell cell;
                    cell.workload = name;
                    cell.collector = gc::algorithmName(algorithm);
                    cell.mode = mode;
                    cell.load_factor = factor;
                    sweep.cells.push_back(std::move(cell));
                }
            }
        }
    }

    if (journal != nullptr) {
        for (auto &cell : sweep.cells) {
            std::vector<std::string> fields;
            if (journal->lookup(openLoopCellKey(cell.workload,
                                                cell.collector,
                                                cell.mode,
                                                cell.load_factor),
                                fields) &&
                decodeCell(fields, cell)) {
                cell.restored = true;
                ++sweep.restored_cells;
            }
        }
    }

    std::vector<std::uint64_t> dispatches(sweep.cells.size(), 0);
    const std::size_t jobs = exec::resolveJobs(options.base.jobs);
    exec::parallel_for(
        exec::Pool::shared(), sweep.cells.size(),
        [&](std::size_t i) {
            auto &cell = sweep.cells[i];
            if (cell.restored)
                return;
            const auto &workload = workloads::byName(cell.workload);
            const auto algorithm = [&] {
                gc::Algorithm a = gc::Algorithm::Serial;
                gc::tryAlgorithmFromName(cell.collector, a);
                return a;
            }();
            const double heap_mb =
                options.heap_factor *
                workloads::sizeMinHeapMb(workload, options.base.size);
            if (cell.mode == "closed") {
                runClosedCell(workload, algorithm, heap_mb, options,
                              cell, &dispatches[i]);
            } else {
                runLiveCell(workload, algorithm, heap_mb,
                            cell.mode == "adaptive", options, cell,
                            &dispatches[i]);
            }
        },
        jobs);

    for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
        auto &cell = sweep.cells[i];
        sweep.dispatches += dispatches[i];
        if (!cell.restored && journal != nullptr) {
            journal->append(openLoopCellKey(cell.workload,
                                            cell.collector, cell.mode,
                                            cell.load_factor),
                            encodeCell(cell));
        }
    }
    return sweep;
}

} // namespace capo::harness
