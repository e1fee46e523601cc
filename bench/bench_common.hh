/**
 * @file
 * Shared helpers for the experiment-reproduction bodies.
 *
 * Each bench target regenerates one table or figure from the paper.
 * The binaries themselves are registry-driven (report/experiment.hh):
 * flag handling, --full presets, banners and artifact flushing all
 * live in the registry runner, so what remains here are the argument
 * checks, sweeps and reporting helpers the experiment bodies share. All
 * file output goes through the context's ArtifactSink — bench code
 * never opens files directly.
 */

#ifndef CAPO_BENCH_BENCH_COMMON_HH
#define CAPO_BENCH_BENCH_COMMON_HH

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/minheap.hh"
#include "harness/plan_file.hh"
#include "report/artifact.hh"
#include "report/experiment.hh"
#include "report/table.hh"
#include "support/strfmt.hh"

namespace capo::bench {

/** The workloads named as positional arguments, or @p defaults;
 *  each name is checked up front (harness::ParseError if unknown). */
inline std::vector<std::string>
selectedWorkloads(const report::ExperimentContext &context,
                  std::vector<std::string> defaults)
{
    const auto &named = context.flags.positionals();
    for (const auto &name : named)
        harness::resolveWorkload(name);
    return named.empty() ? std::move(defaults) : named;
}

/** Integer flag @p name, checked to lie in [@p lo, @p hi]. */
inline std::int64_t
boundedInt(const support::Flags &flags, const std::string &name,
           std::int64_t lo, std::int64_t hi)
{
    const std::int64_t value = flags.getInt(name);
    if (value < lo || value > hi) {
        throw harness::ParseError(
            0, support::concat("--", name, " must be in [", lo, ", ",
                               hi, "], got ", value));
    }
    return value;
}

/** The latency-sensitive workload @p name (--workload of ext_*). */
inline const workloads::Descriptor &
latencyWorkload(const std::string &name)
{
    const auto &workload = harness::resolveWorkload(name);
    if (!workload.latency_sensitive) {
        throw harness::ParseError(
            0, "workload '" + name + "' is not latency-sensitive");
    }
    return workload;
}

/** Run @p plan's open-loop sweep with @p lanes service lanes into the
 *  typed "openloop" table and print it; with @p want_csv also write
 *  openloop.csv (the openloop plan experiment and ext_openloop_pacing;
 *  defined in plan_experiments.cc). */
void openLoopSweep(const harness::ExperimentPlan &plan,
                   report::ExperimentContext &context, int lanes,
                   bool want_csv);

/** Sweep @p plan's LBO grid into the typed table @p table and print
 *  it; with @p want_csv also write lbo_<workload>.csv per workload
 *  (the lbo plan experiment, fig05 and figA_lbo_per_benchmark;
 *  defined in plan_experiments.cc). */
void lboSweep(const harness::ExperimentPlan &plan,
              report::ExperimentContext &context,
              const std::string &table, bool want_csv);

/** Bisect @p plan's minimum-heap grid into the typed "minheap" table
 *  and print it; with @p want_csv also write minheap.csv (the minheap
 *  plan experiment and tabA_minheap; defined in plan_experiments.cc). */
harness::MinHeapGrid minHeapSweep(const harness::ExperimentPlan &plan,
                                  report::ExperimentContext &context,
                                  bool want_csv);

/**
 * Presentation table for the experiment bodies, rendered through
 * report::ResultTable::renderAscii — the one table renderer (typed
 * store tables and bench stdout agree).
 * Cells are pre-formatted strings; renderAscii right-aligns the
 * numeric-presentation columns. Replaces the hand-built
 * support::TextTable + per-column alignment lists every bench binary
 * used to maintain.
 */
class AsciiTable
{
  public:
    explicit AsciiTable(const std::vector<std::string> &headers)
    {
        std::vector<report::Column> columns;
        columns.reserve(headers.size());
        for (const auto &header : headers)
            columns.push_back({header, report::Type::String});
        table_ = report::ResultTable(
            report::Schema(std::move(columns)));
    }

    void
    row(std::vector<std::string> cells)
    {
        std::vector<report::Value> values;
        values.reserve(cells.size());
        for (auto &cell : cells)
            values.push_back(report::Value::str(std::move(cell)));
        table_.addRow(std::move(values));
    }

    /** Group gap: a blank row (alignment scans skip empty cells). */
    void
    separator()
    {
        row(std::vector<std::string>(table_.schema().size()));
    }

    void
    render(std::ostream &out) const
    {
        table_.renderAscii(out);
    }

  private:
    report::ResultTable table_;
};

/** Print a typed table to stdout, doubles to @p decimals places. */
inline void
printTable(const report::ResultTable &table, int decimals = 3)
{
    std::vector<std::string> headers;
    for (const auto &column : table.schema().columns())
        headers.push_back(column.name);
    AsciiTable out(headers);
    for (const auto &row : table.rows()) {
        std::vector<std::string> cells;
        for (const auto &value : row) {
            cells.push_back(value.type() == report::Type::Double
                                ? support::fixed(value.asDouble(),
                                                 decimals)
                                : value.display());
        }
        out.row(std::move(cells));
    }
    out.render(std::cout);
}

/** Format an LBO overhead value ("1.153"). */
inline std::string
overhead(double value)
{
    return support::fixed(value, 3);
}

/** Format a latency in ms with three significant figures. */
inline std::string
latencyMs(double ns)
{
    return support::fixed(ns / 1e6, 3);
}

} // namespace capo::bench

#endif // CAPO_BENCH_BENCH_COMMON_HH
