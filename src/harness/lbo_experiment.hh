/**
 * @file
 * LBO sweep experiments: the machinery behind Figures 1 and 5 and the
 * per-benchmark appendix LBO plots.
 */

#ifndef CAPO_HARNESS_LBO_EXPERIMENT_HH
#define CAPO_HARNESS_LBO_EXPERIMENT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gc/factory.hh"
#include "harness/checkpoint.hh"
#include "harness/runner.hh"
#include "metrics/lbo.hh"

namespace capo::harness {

/** Parameters of a heap-factor sweep. */
struct LboSweepOptions
{
    std::vector<double> factors = {1.0, 1.25, 1.5, 2.0,
                                   3.0, 4.0, 5.0, 6.0};
    std::vector<gc::Algorithm> collectors =
        gc::productionCollectors();
    ExperimentOptions base;

    /**
     * Optional checkpoint journal (non-owning; null disables). Every
     * finished cell appends its result; on resume, journaled cells are
     * restored from their recorded bit patterns instead of re-running
     * — except when tracing is on: the journal cannot carry a cell's
     * event timeline, so restore is bypassed and every cell re-runs
     * (deterministically, so the trace is identical) while the journal
     * still extends for CSV-only resumes later.
     */
    CheckpointJournal *journal = nullptr;
};

/** LBO sweep results for one workload. */
struct WorkloadLbo
{
    std::string workload;
    metrics::LboAnalysis analysis;

    /** Engine events processed across every invocation of the
     *  sweep. */
    std::uint64_t dispatches = 0;

    /** (collector, factor) -> did every invocation complete? */
    std::map<std::pair<std::string, double>, bool> completed;

    /** Quarantined failures (one per failed invocation), in grid
     *  order. A faulty sweep reports these instead of aborting. */
    std::vector<CellError> errors;

    /** Cells restored from the checkpoint journal (not re-run). */
    std::size_t restored_cells = 0;

    bool
    completedAt(const std::string &collector, double factor) const
    {
        auto it = completed.find({collector, factor});
        return it != completed.end() && it->second;
    }
};

/** Run the full sweep for one workload. */
WorkloadLbo runLboSweep(const workloads::Descriptor &workload,
                        const LboSweepOptions &options);

/**
 * Suite-wide curve (Figure 1): for each collector and heap factor,
 * the geometric mean of per-benchmark LBO overheads — plotted only
 * where the collector completed *every* benchmark at that factor
 * (the paper's plotted-points rule).
 */
struct SuiteLboPoint
{
    std::string collector;
    double factor = 0.0;
    bool plotted = false;      ///< All benchmarks completed.
    std::size_t completed = 0; ///< How many benchmarks completed.
    double wall_geomean = 0.0;
    double cpu_geomean = 0.0;
};

std::vector<SuiteLboPoint>
aggregateSuiteLbo(const std::vector<WorkloadLbo> &per_workload,
                  const LboSweepOptions &options);

} // namespace capo::harness

#endif // CAPO_HARNESS_LBO_EXPERIMENT_HH
