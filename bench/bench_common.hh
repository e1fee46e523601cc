/**
 * @file
 * Shared helpers for the experiment-reproduction bodies.
 *
 * Each bench target regenerates one table or figure from the paper.
 * The binaries themselves are registry-driven (report/experiment.hh):
 * flag handling, --full presets, banners and artifact flushing all
 * live in the registry runner, so what remains here is just the
 * formatting and reporting helpers the experiment bodies share. All
 * file output goes through the context's ArtifactSink — bench code
 * never opens files directly.
 */

#ifndef CAPO_BENCH_BENCH_COMMON_HH
#define CAPO_BENCH_BENCH_COMMON_HH

#include <string>
#include <utility>
#include <vector>

#include "report/artifact.hh"
#include "report/experiment.hh"
#include "report/table.hh"
#include "support/strfmt.hh"

namespace capo::bench {

/**
 * Presentation table for the experiment bodies, rendered through
 * report::ResultTable::renderAscii — the one table renderer (typed
 * store tables, capo-client output and bench stdout all agree).
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
