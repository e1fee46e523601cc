#include "harness/lbo_experiment.hh"

#include <cstdlib>
#include <memory>

#include "exec/parallel_for.hh"
#include "exec/pool.hh"
#include "metrics/summary.hh"
#include "support/logging.hh"

namespace capo::harness {

namespace {

/** One (collector, factor) cell of the sweep grid. */
struct SweepCell
{
    gc::Algorithm algorithm;
    double factor = 0.0;
    harness::InvocationSet set;
    std::unique_ptr<trace::TraceSink> shard;

    /** @{ Cell summary — computed from `set` after a live run, or
     *  decoded from the checkpoint journal on restore. */
    bool restored = false;
    bool ok = false;
    std::uint64_t dispatches = 0;
    metrics::RunCost cost{};
    std::vector<CellError> errors{};
    /** @} */
};

std::string
cellKey(const std::string &workload, const std::string &collector,
        double factor)
{
    // The factor is keyed by its exact bit pattern: a sweep resumed
    // with even slightly different factors must miss, not alias.
    return "lbo/" + workload + "/" + collector + "/" +
           CheckpointJournal::encodeDouble(factor);
}

/** Journal fields: ok, dispatches, cost (4 exact doubles), then one
 *  "e:<invocation>:<attempts>:<kind>" field per quarantined error. */
std::vector<std::string>
encodeCell(const SweepCell &cell)
{
    std::vector<std::string> fields;
    fields.reserve(6 + cell.errors.size());
    fields.push_back(cell.ok ? "1" : "0");
    fields.push_back(std::to_string(cell.dispatches));
    fields.push_back(CheckpointJournal::encodeDouble(cell.cost.wall));
    fields.push_back(CheckpointJournal::encodeDouble(cell.cost.cpu));
    fields.push_back(
        CheckpointJournal::encodeDouble(cell.cost.stw_wall));
    fields.push_back(
        CheckpointJournal::encodeDouble(cell.cost.stw_cpu));
    for (const auto &e : cell.errors) {
        fields.push_back("e:" + std::to_string(e.invocation) + ":" +
                         std::to_string(e.attempts) + ":" + e.kind);
    }
    return fields;
}

bool
decodeCell(const std::vector<std::string> &fields,
           const std::string &workload, const std::string &collector,
           SweepCell &cell)
{
    if (fields.size() < 6)
        return false;
    cell.ok = fields[0] == "1";
    char *end = nullptr;
    cell.dispatches = std::strtoull(fields[1].c_str(), &end, 10);
    if (end == nullptr || *end != '\0')
        return false;
    if (!CheckpointJournal::decodeDouble(fields[2], cell.cost.wall) ||
        !CheckpointJournal::decodeDouble(fields[3], cell.cost.cpu) ||
        !CheckpointJournal::decodeDouble(fields[4],
                                         cell.cost.stw_wall) ||
        !CheckpointJournal::decodeDouble(fields[5],
                                         cell.cost.stw_cpu)) {
        return false;
    }
    for (std::size_t i = 6; i < fields.size(); ++i) {
        const auto &f = fields[i];
        if (f.rfind("e:", 0) != 0)
            return false;
        const auto c1 = f.find(':', 2);
        const auto c2 =
            c1 == std::string::npos ? c1 : f.find(':', c1 + 1);
        if (c2 == std::string::npos)
            return false;
        CellError e;
        e.workload = workload;
        e.collector = collector;
        e.heap_factor = cell.factor;
        e.invocation = std::atoi(f.substr(2, c1 - 2).c_str());
        e.attempts = std::atoi(f.substr(c1 + 1, c2 - c1 - 1).c_str());
        e.kind = f.substr(c2 + 1);
        cell.errors.push_back(std::move(e));
    }
    return true;
}

} // namespace

WorkloadLbo
runLboSweep(const workloads::Descriptor &workload,
            const LboSweepOptions &options)
{
    WorkloadLbo result;
    result.workload = workload.name;

    trace::TraceSink *sink = options.base.trace;
    CheckpointJournal *journal = options.journal;
    // The journal stores cell summaries, not event timelines, so a
    // traced sweep re-runs every cell (deterministically — the trace
    // comes out identical) and only CSV-producing sweeps restore.
    const bool restore = journal != nullptr && sink == nullptr;

    // Lay the grid out row-major (collector, then factor) so the
    // merged timeline and the result maps read in the same order the
    // old serial loop produced.
    std::vector<SweepCell> cells;
    cells.reserve(options.collectors.size() * options.factors.size());
    for (auto algorithm : options.collectors) {
        for (double factor : options.factors)
            cells.push_back({algorithm, factor, {}, nullptr});
    }

    if (restore) {
        for (auto &cell : cells) {
            const std::string name = gc::algorithmName(cell.algorithm);
            std::vector<std::string> fields;
            if (journal->lookup(cellKey(workload.name, name,
                                        cell.factor),
                                fields) &&
                decodeCell(fields, workload.name, name, cell)) {
                cell.restored = true;
                ++result.restored_cells;
            }
        }
    }

    // Every cell runs through its own Runner writing into its own
    // shard sink; cell seeds depend only on cell coordinates, so the
    // fan-out is unobservable in the results. jobs also fans the
    // invocations inside each cell (help-first scheduling makes the
    // nesting deadlock-free).
    const std::size_t jobs = exec::resolveJobs(options.base.jobs);
    exec::parallel_for(
        exec::Pool::shared(), cells.size(),
        [&](std::size_t i) {
            auto &cell = cells[i];
            if (cell.restored)
                return;
            ExperimentOptions cell_options = options.base;
            if (sink != nullptr) {
                cell.shard = trace::TraceSink::acquireShard(
                    sink->shardOptions());
                cell_options.trace = cell.shard.get();
            }
            Runner runner(cell_options);
            cell.set =
                runner.run(workload, cell.algorithm, cell.factor);
        },
        jobs);

    const auto track =
        sink ? sink->registerTrack("harness") : trace::TrackId{0};
    for (auto &cell : cells) {
        const std::string name = gc::algorithmName(cell.algorithm);
        if (!cell.restored) {
            for (const auto &run : cell.set.runs)
                cell.dispatches += run.dispatches;
            cell.ok = cell.set.allCompleted();
            if (cell.ok)
                cell.cost = cell.set.meanTimedCost();
            for (std::size_t inv = 0; inv < cell.set.runs.size();
                 ++inv) {
                const auto &run = cell.set.runs[inv];
                if (run.usable())
                    continue;
                CellError e;
                e.workload = workload.name;
                e.collector = name;
                e.heap_factor = cell.factor;
                e.invocation = static_cast<int>(inv);
                e.attempts = run.attempts;
                e.kind = errorKind(run);
                cell.errors.push_back(std::move(e));
            }
            if (journal != nullptr) {
                journal->append(cellKey(workload.name, name,
                                        cell.factor),
                                encodeCell(cell));
            }
        }
        if (sink) {
            // One sweep-cell span wrapping this cell's invocations;
            // the cell shard's time base advanced past every
            // invocation, so it is also the cell's duration.
            const char *label = sink->internName(
                name + " @ " + support::concat(cell.factor) + "x");
            const double cell_begin = sink->timeBase();
            const double cell_end =
                cell_begin + cell.shard->timeBase();
            sink->beginSpanAbs(track, trace::Category::Harness, label,
                               cell_begin);
            sink->merge(*cell.shard, cell_begin);
            sink->endSpanAbs(track, trace::Category::Harness, label,
                             cell_end);
            sink->setTimeBase(cell_end);
            trace::TraceSink::releaseShard(std::move(cell.shard));
        }
        result.dispatches += cell.dispatches;
        result.completed[{name, cell.factor}] = cell.ok;
        if (cell.ok)
            result.analysis.add(name, cell.factor, cell.cost);
        result.errors.insert(result.errors.end(), cell.errors.begin(),
                             cell.errors.end());
    }
    return result;
}

std::vector<SuiteLboPoint>
aggregateSuiteLbo(const std::vector<WorkloadLbo> &per_workload,
                  const LboSweepOptions &options)
{
    std::vector<SuiteLboPoint> points;
    for (auto algorithm : options.collectors) {
        const std::string name = gc::algorithmName(algorithm);
        for (double factor : options.factors) {
            SuiteLboPoint point;
            point.collector = name;
            point.factor = factor;

            std::vector<double> walls, cpus;
            for (const auto &w : per_workload) {
                if (!w.completedAt(name, factor))
                    continue;
                const auto o = w.analysis.overhead(name, factor);
                walls.push_back(o.wall);
                cpus.push_back(o.cpu);
            }
            point.completed = walls.size();
            point.plotted = point.completed == per_workload.size() &&
                            !per_workload.empty();
            if (!walls.empty()) {
                point.wall_geomean = metrics::geomean(walls);
                point.cpu_geomean = metrics::geomean(cpus);
            }
            points.push_back(point);
        }
    }
    return points;
}

} // namespace capo::harness
