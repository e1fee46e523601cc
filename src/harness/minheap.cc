#include "harness/minheap.hh"

#include <algorithm>
#include <memory>

#include "exec/parallel_for.hh"
#include "exec/pool.hh"
#include "support/logging.hh"
#include "workloads/registry.hh"

namespace capo::harness {

MinHeapResult
findMinHeapMb(const workloads::Descriptor &workload,
              gc::Algorithm algorithm, const ExperimentOptions &options,
              double tolerance)
{
    // Probe runs: one invocation, few iterations, tight time cap so
    // thrashing configurations fail fast instead of crawling.
    ExperimentOptions probe = options;
    probe.invocations = 1;
    probe.iterations = std::min(options.iterations, 2);
    probe.trace_rate = false;
    Runner runner(probe);

    const double reference =
        workloads::sizeMinHeapMb(workload, options.size);

    MinHeapResult result;
    auto completes = [&](double heap_mb) {
        ++result.probes;
        const auto run = runner.runOnce(workload, algorithm, heap_mb, 0);
        return run.usable();
    };

    // Bracket: grow upward from a clearly-too-small start.
    double lo = reference * 0.25;
    double hi = reference * 0.5;
    while (!completes(hi)) {
        lo = hi;
        hi *= 2.0;
        if (hi > reference * 64.0) {
            support::warn("min-heap search for ", workload.name, "/",
                          gc::algorithmName(algorithm),
                          " failed to bracket");
            result.min_heap_mb = hi;
            return result;
        }
    }

    // Bisect.
    while ((hi - lo) / hi > tolerance) {
        const double mid = 0.5 * (lo + hi);
        if (completes(mid))
            hi = mid;
        else
            lo = mid;
    }

    result.min_heap_mb = hi;
    result.converged = true;
    return result;
}

const MinHeapResult *
MinHeapGrid::at(const std::string &workload,
                gc::Algorithm algorithm) const
{
    for (const auto &cell : cells) {
        if (cell.workload == workload && cell.algorithm == algorithm)
            return &cell.result;
    }
    return nullptr;
}

namespace {

std::string
minHeapKey(const std::string &workload, gc::Algorithm algorithm)
{
    return "minheap/" + workload + "/" +
           gc::algorithmName(algorithm);
}

} // namespace

MinHeapGrid
findMinHeapGrid(const std::vector<std::string> &workload_names,
                const std::vector<gc::Algorithm> &collectors,
                const ExperimentOptions &options, double tolerance,
                CheckpointJournal *journal)
{
    MinHeapGrid grid;
    grid.cells.reserve(workload_names.size() * collectors.size());
    for (const auto &name : workload_names) {
        for (auto algorithm : collectors)
            grid.cells.push_back({name, algorithm, {}});
    }

    trace::TraceSink *sink = options.trace;
    std::vector<std::unique_ptr<trace::TraceSink>> shards(
        grid.cells.size());

    // Restore journaled searches (CSV-only runs; see LboSweepOptions
    // for why tracing bypasses restore). Fields: exact min-heap bit
    // pattern, probe count, converged flag.
    std::vector<char> restored(grid.cells.size(), 0);
    if (journal != nullptr && sink == nullptr) {
        for (std::size_t i = 0; i < grid.cells.size(); ++i) {
            auto &cell = grid.cells[i];
            std::vector<std::string> fields;
            if (!journal->lookup(minHeapKey(cell.workload,
                                            cell.algorithm),
                                 fields) ||
                fields.size() != 3) {
                continue;
            }
            MinHeapResult r;
            if (!CheckpointJournal::decodeDouble(fields[0],
                                                 r.min_heap_mb))
                continue;
            r.probes = std::atoi(fields[1].c_str());
            r.converged = fields[2] == "1";
            cell.result = r;
            restored[i] = 1;
        }
    }

    const std::size_t jobs = exec::resolveJobs(options.jobs);
    exec::parallel_for(
        exec::Pool::shared(), grid.cells.size(),
        [&](std::size_t i) {
            auto &cell = grid.cells[i];
            if (restored[i])
                return;
            ExperimentOptions cell_options = options;
            if (sink != nullptr) {
                shards[i] = std::make_unique<trace::TraceSink>(
                    sink->shardOptions());
                cell_options.trace = shards[i].get();
            }
            cell.result =
                findMinHeapMb(workloads::byName(cell.workload),
                              cell.algorithm, cell_options, tolerance);
            if (journal != nullptr) {
                journal->append(
                    minHeapKey(cell.workload, cell.algorithm),
                    {CheckpointJournal::encodeDouble(
                         cell.result.min_heap_mb),
                     std::to_string(cell.result.probes),
                     cell.result.converged ? "1" : "0"});
            }
        },
        jobs);

    if (sink != nullptr) {
        for (std::size_t i = 0; i < grid.cells.size(); ++i) {
            const auto &cell = grid.cells[i];
            sink->appendCell(*shards[i], "minheap " + cell.workload + "/" +
                                             gc::algorithmName(cell.algorithm));
        }
    }
    return grid;
}

} // namespace capo::harness
