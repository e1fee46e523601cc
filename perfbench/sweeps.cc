/**
 * @file
 * The three benchmark workloads. Each is a fixed grid swept in a closed
 * loop on one thread (jobs = 1): the next cell starts when the previous
 * one returns.
 *
 *  - lbo_sweep: Figure 1's grid (22 workloads x 5 collectors x 8 heap
 *    factors). Host time is almost all inside the simulator.
 *  - latency_synth: runLatencySweep over the 9 latency-sensitive
 *    workloads x 5 collectors x 3 heap factors. Host time is almost all
 *    request synthesis, metered latency and quantile sorting.
 *  - openloop_live: runOpenLoopSweep's live cells over the 9
 *    latency-sensitive workloads x {Shenandoah, ZGC} x {static,
 *    adaptive} x 3 load factors. Timer-driven arrival agents load the
 *    engine differently from lbo_sweep; at load 1.2 the lanes shed.
 *
 * Untraced, a cell is one call of the library's public sweep entry
 * point over a one-cell grid (lbo_sweep calls Runner::run, the per-cell
 * call runLboSweep makes, because its LBO baseline spans a whole row).
 * Traced, each cell is rebuilt from the layer calls that entry point
 * makes, each under its own span, and must reproduce the same digest.
 */

#include <chrono>
#include <exception>
#include <fstream>

#include "bench.hh"
#include "gc/factory.hh"
#include "harness/latency_experiment.hh"
#include "harness/lbo_experiment.hh"
#include "harness/openloop_experiment.hh"
#include "load/driver.hh"
#include "load/pacer.hh"
#include "metrics/request_synth.hh"
#include "metrics/summary.hh"
#include "report/table.hh"
#include "support/rng.hh"
#include "workloads/plans.hh"
#include "workloads/registry.hh"

namespace perfbench {

using namespace capo;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Scope::Scope(Tracer *tracer, const char *layer) : tracer_(tracer)
{
    if (tracer_ == nullptr)
        return;
    index_ = tracer_->spans_.size();
    tracer_->spans_.push_back({layer, nowNs(), 0, 0, tracer_->open_});
    tracer_->open_ = static_cast<std::int64_t>(index_);
}

Tracer::Scope::~Scope()
{
    if (tracer_ == nullptr)
        return;
    auto &span = tracer_->spans_[index_];
    span.end_ns = nowNs();
    if (span.parent >= 0) {
        tracer_->spans_[static_cast<std::size_t>(span.parent)].child_ns +=
            span.end_ns - span.begin_ns;
    }
    tracer_->open_ = span.parent;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::map<std::string, double> self;
    for (const auto &span : spans_) {
        self[span.layer] +=
            static_cast<double>(span.end_ns - span.begin_ns -
                                span.child_ns) /
            1e9;
    }
    return self;
}

void
Tracer::writeCsv(const std::string &path) const
{
    std::ofstream out(path);
    out << "id,parent,layer,begin_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &span = spans_[i];
        out << i << ',' << span.parent << ',' << span.layer << ','
            << span.begin_ns << ',' << span.end_ns << '\n';
    }
}

namespace {

double
msSince(std::int64_t begin_ns)
{
    return static_cast<double>(nowNs() - begin_ns) / 1e6;
}

/** The span name of Runner calls for @p algorithm: runtime.exec_s is
 *  their sum, and each collector's share is reported on its own. */
const char *
execLayer(gc::Algorithm algorithm)
{
    switch (algorithm) {
    case gc::Algorithm::Serial:
        return "runtime.exec.serial";
    case gc::Algorithm::Parallel:
        return "runtime.exec.parallel";
    case gc::Algorithm::G1:
        return "runtime.exec.g1";
    case gc::Algorithm::Shenandoah:
        return "runtime.exec.shenandoah";
    case gc::Algorithm::Zgc:
        return "runtime.exec.zgc";
    case gc::Algorithm::GenZgc:
        return "runtime.exec.genzgc";
    }
    return "runtime.exec.other";
}

/** metrics::quantile under its span, counting the samples it sorts. */
double
tracedQuantile(Tracer *tracer, Counts &counts,
               const std::vector<double> &values, double q)
{
    Tracer::Scope span(tracer, "metrics.quantile");
    ++counts.quantile_calls;
    counts.sorted_samples += values.size();
    return metrics::quantile(values, q);
}

/** Fold one execution's model counts into @p counts. */
void
countRun(const runtime::ExecutionResult &run, Counts &counts)
{
    counts.events += run.dispatches;
    counts.collections += run.collections;
    counts.alloc_stalls += run.stall_count;
    counts.rate_segments += run.rate_timeline.size();
}

/** Unmodelled end of an execution: anything but completion or a
 *  modelled out-of-memory ("timeout" or "failed"). */
std::string
unmodelledFailure(const runtime::ExecutionResult &run)
{
    if (run.usable() || run.oom)
        return "";
    return "execution ended as '" + harness::errorKind(run) + "'";
}

/** Write @p table through the artifact sink under its span. */
void
writeReport(Tracer *tracer, report::ArtifactSink &sink,
            const std::string &path, const report::ResultTable &table,
            Counts &counts)
{
    Tracer::Scope span(tracer, "report.write");
    sink.writeTable(path, table, report::Format::Csv);
    counts.report_bytes += sink.artifacts().back().bytes;
}

/** A grid cut to its first @p max_cells cells (0 keeps it whole). */
std::size_t
cutGrid(std::size_t total, std::size_t max_cells)
{
    return max_cells > 0 && max_cells < total ? max_cells : total;
}

std::vector<std::string>
latencySensitiveNames()
{
    std::vector<std::string> names;
    for (const auto *workload : workloads::latencySensitive())
        names.push_back(workload->name);
    return names;
}

/** Cells of @p mine whose digest differs from the same cell of the
 *  library's full-grid sweep @p library. */
template <typename Cell>
std::size_t
differingCells(const std::vector<Cell> &mine,
               const std::vector<Cell> &library,
               Item (*item)(const Cell &, const std::string &))
{
    std::size_t differing = 0;
    for (std::size_t i = 0; i < mine.size(); ++i) {
        if (i >= library.size() ||
            item(library[i], "").digest != item(mine[i], "").digest)
            ++differing;
    }
    return differing;
}

// ---------------------------------------------------------------------
// lbo_sweep

class LboSweep final : public Workload
{
  public:
    LboSweep(std::uint64_t seed, std::size_t max_cells)
    {
        // fig01_lbo_geomean's quick preset.
        options_.factors = {1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0};
        options_.base.invocations = 3;
        options_.base.iterations = 3;
        options_.base.base_seed = seed;
        options_.base.jobs = 1;
        per_row_ = options_.collectors.size() * options_.factors.size();
        total_ = workloads::suite().size() * per_row_;
        cells_ = cutGrid(total_, max_cells);
    }

    std::size_t cells() const override { return cells_; }

    const harness::ExperimentOptions &
    options() const override
    {
        return options_.base;
    }

    std::vector<SetupKey>
    setupKeys() const override
    {
        std::vector<SetupKey> keys;
        const auto &suite = workloads::suite();
        for (std::size_t i = 0; i < cells_; i += options_.factors.size()) {
            keys.push_back({&suite[i / per_row_],
                            options_.collectors[(i % per_row_) /
                                                options_.factors.size()]});
        }
        return keys;
    }

    SweepResult
    sweep(Tracer *tracer, report::ArtifactSink &sink) override
    {
        SweepResult out;
        const std::int64_t begin = nowNs();
        {
            Tracer::Scope root(tracer, "bench.sweep");
            report::ResultTable table(report::Schema{
                {"workload", report::Type::String},
                {"collector", report::Type::String},
                {"factor", report::Type::Double},
                {"completed", report::Type::Bool},
                {"wall_lbo", report::Type::Double},
                {"cpu_lbo", report::Type::Double}});
            std::vector<harness::WorkloadLbo> per_workload;
            const harness::Runner runner(options_.base);

            std::size_t index = 0;
            for (const auto &workload : workloads::suite()) {
                if (index >= cells_)
                    break;
                // Like runLboSweep, a workload's row stays alive until
                // its LBO baseline can be distilled from the whole row.
                std::vector<RowCell> row;
                for (auto algorithm : options_.collectors) {
                    for (double factor : options_.factors) {
                        if (index++ >= cells_)
                            break;
                        row.push_back({algorithm, factor, {}, ""});
                        auto &cell = row.back();
                        const std::int64_t cell_begin = nowNs();
                        try {
                            Tracer::Scope span(tracer,
                                               execLayer(algorithm));
                            cell.set =
                                runner.run(workload, algorithm, factor);
                        } catch (const std::exception &e) {
                            cell.error = e.what();
                        }
                        out.cell_ms.push_back(msSince(cell_begin));
                    }
                }

                harness::WorkloadLbo lbo;
                lbo.workload = workload.name;
                {
                    Tracer::Scope span(tracer, "metrics.lbo");
                    for (const auto &cell : row) {
                        const std::string name =
                            gc::algorithmName(cell.algorithm);
                        const bool ok = cell.set.allCompleted();
                        lbo.completed[{name, cell.factor}] = ok;
                        if (ok) {
                            lbo.analysis.add(name, cell.factor,
                                             cell.set.meanTimedCost());
                        }
                    }
                }
                for (const auto &cell : row) {
                    out.items.push_back(
                        cellItem(workload, cell, out.counts));
                    addRow(table, workload, cell, lbo);
                }
                // A row's LBO overheads are an output only of the whole
                // row: they share its distilled baseline.
                if (row.size() == per_row_)
                    out.items.push_back(rowItem(lbo));
                per_workload.push_back(std::move(lbo));
            }

            std::vector<harness::SuiteLboPoint> points;
            {
                Tracer::Scope span(tracer, "metrics.lbo");
                points = harness::aggregateSuiteLbo(per_workload,
                                                    options_);
            }
            // The Figure 1 curve is an output only of the whole grid.
            if (cells_ == total_)
                out.items.push_back(suiteItem(points));

            report::ResultTable curve(report::Schema{
                {"collector", report::Type::String},
                {"factor", report::Type::Double},
                {"plotted", report::Type::Bool},
                {"completed", report::Type::Uint},
                {"wall_geomean", report::Type::Double},
                {"cpu_geomean", report::Type::Double}});
            for (const auto &p : points) {
                curve.addRow({report::Value::str(p.collector),
                              report::Value::dbl(p.factor),
                              report::Value::boolean(p.plotted),
                              report::Value::uinteger(p.completed),
                              report::Value::dbl(p.wall_geomean),
                              report::Value::dbl(p.cpu_geomean)});
            }
            writeReport(tracer, sink, "lbo_sweep_cells.csv", table,
                        out.counts);
            writeReport(tracer, sink, "lbo_sweep_suite.csv", curve,
                        out.counts);
            if (keep_) {
                kept_workloads_ = std::move(per_workload);
                kept_points_ = std::move(points);
            }
        }
        out.seconds = static_cast<double>(nowNs() - begin) / 1e9;
        return out;
    }

    std::size_t
    crossCheck() override
    {
        std::size_t mismatches = 0;
        std::vector<harness::WorkloadLbo> library;
        for (const auto &mine : kept_workloads_) {
            library.push_back(harness::runLboSweep(
                workloads::byName(mine.workload), options_));
            if (rowItem(library.back()).digest != rowItem(mine).digest)
                ++mismatches;
        }
        const auto points = harness::aggregateSuiteLbo(library, options_);
        if (suiteItem(points).digest != suiteItem(kept_points_).digest)
            ++mismatches;
        return mismatches;
    }

  private:
    struct RowCell
    {
        gc::Algorithm algorithm;
        double factor;
        harness::InvocationSet set;
        std::string error;
    };

    static Item
    cellItem(const workloads::Descriptor &workload, const RowCell &cell,
             Counts &counts)
    {
        Item item;
        item.key = workload.name + "/" + gc::algorithmName(cell.algorithm) +
                   "/" + std::to_string(cell.factor);
        if (!cell.error.empty()) {
            item.broken = true;
            item.why = cell.error;
        }
        Digest digest;
        bool oom = false;
        for (const auto &run : cell.set.runs) {
            digest.add(run.completed);
            digest.add(run.oom);
            digest.add(run.timed_out);
            digest.add(run.timed.wall);
            digest.add(run.timed.cpu);
            digest.add(run.timed.stw_wall);
            digest.add(run.timed.stw_cpu);
            countRun(run, counts);
            oom = oom || run.oom;
            const std::string failure = unmodelledFailure(run);
            if (!failure.empty()) {
                item.broken = true;
                item.why = failure;
            }
        }
        counts.oom_cells += oom ? 1 : 0;
        item.digest = digest.value();
        return item;
    }

    /** One workload's LBO row: completion and overheads per cell. */
    Item
    rowItem(const harness::WorkloadLbo &lbo) const
    {
        Item item;
        item.key = lbo.workload + "/lbo";
        Digest digest;
        for (auto algorithm : options_.collectors) {
            const std::string name = gc::algorithmName(algorithm);
            for (double factor : options_.factors) {
                const bool ok = lbo.completedAt(name, factor);
                digest.add(ok);
                if (!ok)
                    continue;
                // LBO divides by the smallest distilled cost, so every
                // completed configuration's overhead is at least 1.
                const auto o = lbo.analysis.overhead(name, factor);
                digest.add(o.wall);
                digest.add(o.cpu);
                if (!(o.wall >= 1.0 && o.cpu >= 1.0)) {
                    item.broken = true;
                    item.why = "LBO overhead below 1";
                }
            }
        }
        item.digest = digest.value();
        return item;
    }

    static Item
    suiteItem(const std::vector<harness::SuiteLboPoint> &points)
    {
        Item item;
        item.key = "suite";
        Digest digest;
        for (const auto &p : points) {
            digest.add(p.collector);
            digest.add(p.factor);
            digest.add(p.plotted);
            digest.add(static_cast<std::uint64_t>(p.completed));
            digest.add(p.wall_geomean);
            digest.add(p.cpu_geomean);
        }
        item.digest = digest.value();
        return item;
    }

    static void
    addRow(report::ResultTable &table,
           const workloads::Descriptor &workload, const RowCell &cell,
           const harness::WorkloadLbo &lbo)
    {
        const std::string name = gc::algorithmName(cell.algorithm);
        const bool ok = lbo.completedAt(name, cell.factor);
        const auto o = ok ? lbo.analysis.overhead(name, cell.factor)
                          : metrics::LboOverhead{};
        table.addRow({report::Value::str(workload.name),
                      report::Value::str(name),
                      report::Value::dbl(cell.factor),
                      report::Value::boolean(ok),
                      report::Value::dbl(o.wall),
                      report::Value::dbl(o.cpu)});
    }

    harness::LboSweepOptions options_;
    std::size_t per_row_ = 0;
    std::size_t total_ = 0;
    std::size_t cells_ = 0;
    std::vector<harness::WorkloadLbo> kept_workloads_;
    std::vector<harness::SuiteLboPoint> kept_points_;
};

// ---------------------------------------------------------------------
// latency_synth

class LatencySynth final : public Workload
{
  public:
    LatencySynth(std::uint64_t seed, std::size_t max_cells)
    {
        // figA_latency_all's quick preset, plus a middle heap factor.
        options_.factors = {2.0, 3.0, 6.0};
        options_.base.invocations = 1;
        options_.base.iterations = 2;
        options_.base.base_seed = seed;
        options_.base.jobs = 1;
        // runLatencySweep's order: workload, then factor, then collector.
        for (const auto *workload : workloads::latencySensitive()) {
            for (double factor : options_.factors) {
                for (auto algorithm : options_.collectors)
                    grid_.push_back({workload, algorithm, factor});
            }
        }
        grid_.resize(cutGrid(grid_.size(), max_cells));
    }

    std::size_t cells() const override { return grid_.size(); }

    const harness::ExperimentOptions &
    options() const override
    {
        return options_.base;
    }

    std::vector<SetupKey>
    setupKeys() const override
    {
        std::vector<SetupKey> keys;
        for (const auto &cell : grid_) {
            if (cell.factor == options_.factors.front())
                keys.push_back({cell.workload, cell.algorithm});
        }
        return keys;
    }

    SweepResult
    sweep(Tracer *tracer, report::ArtifactSink &sink) override
    {
        SweepResult out;
        const std::int64_t begin = nowNs();
        {
            Tracer::Scope root(tracer, "bench.sweep");
            // Like runbms, the sweep result (raw request logs included)
            // lives until the sweep ends.
            harness::LatencySweep all;
            std::vector<std::string> failures(grid_.size());
            for (std::size_t i = 0; i < grid_.size(); ++i) {
                const auto &coords = grid_[i];
                const std::int64_t cell_begin = nowNs();
                try {
                    if (tracer == nullptr) {
                        auto one = options_;
                        one.factors = {coords.factor};
                        one.collectors = {coords.algorithm};
                        auto part = harness::runLatencySweep(
                            {coords.workload->name}, one);
                        all.cells.push_back(
                            std::move(part.cells.front()));
                    } else {
                        all.cells.push_back(rebuildCell(
                            coords, tracer, out.counts, failures[i]));
                    }
                } catch (const std::exception &e) {
                    harness::LatencyCell cell;
                    cell.workload = coords.workload->name;
                    cell.collector = gc::algorithmName(coords.algorithm);
                    cell.factor = coords.factor;
                    all.cells.push_back(std::move(cell));
                    failures[i] = e.what();
                }
                out.cell_ms.push_back(msSince(cell_begin));
            }

            report::ResultTable table(report::Schema{
                {"workload", report::Type::String},
                {"collector", report::Type::String},
                {"factor", report::Type::Double},
                {"completed", report::Type::Bool},
                {"p50_ms", report::Type::Double},
                {"p99_ms", report::Type::Double},
                {"p999_ms", report::Type::Double},
                {"intended_p99_ms", report::Type::Double},
                {"metered_p50_ms", report::Type::Double},
                {"metered_p999_ms", report::Type::Double}});
            for (std::size_t i = 0; i < all.cells.size(); ++i) {
                const auto &cell = all.cells[i];
                out.items.push_back(cellItem(cell, failures[i]));
                table.addRow({report::Value::str(cell.workload),
                              report::Value::str(cell.collector),
                              report::Value::dbl(cell.factor),
                              report::Value::boolean(cell.ok),
                              report::Value::dbl(cell.p50_ns / 1e6),
                              report::Value::dbl(cell.p99_ns / 1e6),
                              report::Value::dbl(cell.p999_ns / 1e6),
                              report::Value::dbl(cell.intended_p99_ns / 1e6),
                              report::Value::dbl(cell.metered_p50_ns / 1e6),
                              report::Value::dbl(cell.metered_p999_ns /
                                                 1e6)});
            }
            writeReport(tracer, sink, "latency_synth.csv", table,
                        out.counts);
            if (keep_)
                kept_ = std::move(all);
        }
        out.seconds = static_cast<double>(nowNs() - begin) / 1e9;
        return out;
    }

    std::size_t
    crossCheck() override
    {
        const auto library =
            harness::runLatencySweep(latencySensitiveNames(), options_);
        return differingCells(kept_.cells, library.cells, &cellItem);
    }

  private:
    struct Coords
    {
        const workloads::Descriptor *workload;
        gc::Algorithm algorithm;
        double factor;
    };

    /** runLatencySweep's cell body, one layer call per span. */
    harness::LatencyCell
    rebuildCell(const Coords &coords, Tracer *tracer, Counts &counts,
                std::string &failure) const
    {
        harness::LatencyCell cell;
        cell.workload = coords.workload->name;
        cell.collector = gc::algorithmName(coords.algorithm);
        cell.factor = coords.factor;

        harness::ExperimentOptions run_options = options_.base;
        run_options.invocations = 1;
        run_options.trace_rate = true;
        const harness::Runner runner(run_options);
        harness::InvocationSet set;
        {
            Tracer::Scope span(tracer, execLayer(coords.algorithm));
            set = runner.run(*coords.workload, coords.algorithm,
                             coords.factor);
        }
        bool oom = false;
        for (const auto &run : set.runs) {
            countRun(run, counts);
            oom = oom || run.oom;
            if (failure.empty())
                failure = unmodelledFailure(run);
        }
        counts.oom_cells += oom ? 1 : 0;
        if (!set.allCompleted())
            return cell;

        const auto &run = set.runs.front();
        const auto &timed = run.iterations.back();
        {
            Tracer::Scope span(tracer, "metrics.synth");
            cell.requests = metrics::synthesizeRequests(
                run.rate_timeline, run.baseline_rate,
                coords.workload->requests, timed.wall_begin,
                timed.wall_end, support::Rng(run_options.base_seed));
        }
        counts.requests += cell.requests.size();
        std::vector<double> simple;
        std::vector<double> intended;
        std::vector<double> metered;
        {
            Tracer::Scope span(tracer, "metrics.quantile");
            simple = cell.requests.simpleLatencies();
            intended = cell.requests.intendedLatencies();
        }
        {
            Tracer::Scope span(tracer, "metrics.metered");
            metered =
                cell.requests.meteredLatencies(options_.metered_window_ns);
        }
        cell.ok = true;
        cell.have_raw = true;
        cell.p50_ns = tracedQuantile(tracer, counts, simple, 0.5);
        cell.p99_ns = tracedQuantile(tracer, counts, simple, 0.99);
        cell.p999_ns = tracedQuantile(tracer, counts, simple, 0.999);
        cell.intended_p99_ns =
            tracedQuantile(tracer, counts, intended, 0.99);
        cell.metered_p50_ns = tracedQuantile(tracer, counts, metered, 0.5);
        cell.metered_p999_ns =
            tracedQuantile(tracer, counts, metered, 0.999);
        return cell;
    }

    static Item
    cellItem(const harness::LatencyCell &cell, const std::string &failure)
    {
        Item item;
        item.key = cell.workload + "/" + cell.collector + "/" +
                   std::to_string(cell.factor);
        item.broken = !failure.empty();
        item.why = failure;
        Digest digest;
        digest.add(cell.ok);
        digest.add(static_cast<std::uint64_t>(cell.requests.size()));
        digest.add(cell.p50_ns);
        digest.add(cell.p99_ns);
        digest.add(cell.p999_ns);
        digest.add(cell.intended_p99_ns);
        digest.add(cell.metered_p50_ns);
        digest.add(cell.metered_p999_ns);
        item.digest = digest.value();
        if (cell.ok &&
            !(cell.p50_ns <= cell.p99_ns && cell.p99_ns <= cell.p999_ns &&
              cell.intended_p99_ns >= cell.p99_ns &&
              cell.metered_p50_ns <= cell.metered_p999_ns)) {
            item.broken = true;
            item.why = "latency quantiles out of order";
        }
        return item;
    }

    harness::LatencySweepOptions options_;
    std::vector<Coords> grid_;
    harness::LatencySweep kept_;
};

// ---------------------------------------------------------------------
// openloop_live

class OpenLoopLive final : public Workload
{
  public:
    OpenLoopLive(std::uint64_t seed, std::size_t max_cells)
    {
        // ext_openloop_pacing's quick preset over every
        // latency-sensitive workload, live modes only.
        options_.load_factors = {0.5, 0.9, 1.2};
        options_.collectors = {gc::Algorithm::Shenandoah,
                               gc::Algorithm::Zgc};
        options_.modes = {"static", "adaptive"};
        options_.base.invocations = 1;
        options_.base.iterations = 2;
        options_.base.base_seed = seed;
        options_.base.jobs = 1;
        // runOpenLoopSweep's order: workload, collector, mode, factor.
        for (const auto *workload : workloads::latencySensitive()) {
            for (auto algorithm : options_.collectors) {
                for (const auto &mode : options_.modes) {
                    for (double factor : options_.load_factors)
                        grid_.push_back({workload, algorithm, mode, factor});
                }
            }
        }
        grid_.resize(cutGrid(grid_.size(), max_cells));
    }

    std::size_t cells() const override { return grid_.size(); }

    const harness::ExperimentOptions &
    options() const override
    {
        return options_.base;
    }

    std::vector<SetupKey>
    setupKeys() const override
    {
        std::vector<SetupKey> keys;
        for (const auto &cell : grid_) {
            if (cell.mode == options_.modes.front() &&
                cell.factor == options_.load_factors.front())
                keys.push_back({cell.workload, cell.algorithm});
        }
        return keys;
    }

    SweepResult
    sweep(Tracer *tracer, report::ArtifactSink &sink) override
    {
        SweepResult out;
        const std::int64_t begin = nowNs();
        {
            Tracer::Scope root(tracer, "bench.sweep");
            harness::OpenLoopSweep all;
            std::vector<std::string> failures(grid_.size());
            for (std::size_t i = 0; i < grid_.size(); ++i) {
                const auto &coords = grid_[i];
                const std::int64_t cell_begin = nowNs();
                try {
                    if (tracer == nullptr) {
                        auto one = options_;
                        one.collectors = {coords.algorithm};
                        one.modes = {coords.mode};
                        one.load_factors = {coords.factor};
                        auto part = harness::runOpenLoopSweep(
                            {coords.workload->name}, one);
                        all.dispatches += part.dispatches;
                        all.cells.push_back(
                            std::move(part.cells.front()));
                    } else {
                        all.cells.push_back(rebuildCell(
                            coords, tracer, out.counts, failures[i]));
                    }
                } catch (const std::exception &e) {
                    harness::OpenLoopCell cell;
                    cell.workload = coords.workload->name;
                    cell.collector = gc::algorithmName(coords.algorithm);
                    cell.mode = coords.mode;
                    cell.load_factor = coords.factor;
                    all.cells.push_back(std::move(cell));
                    failures[i] = e.what();
                }
                out.cell_ms.push_back(msSince(cell_begin));
            }

            report::ResultTable table(report::Schema{
                {"workload", report::Type::String},
                {"collector", report::Type::String},
                {"mode", report::Type::String},
                {"load", report::Type::Double},
                {"completed", report::Type::Bool},
                {"arrival_p50_ms", report::Type::Double},
                {"arrival_p99_ms", report::Type::Double},
                {"arrival_p999_ms", report::Type::Double},
                {"service_p50_ms", report::Type::Double},
                {"service_p99_ms", report::Type::Double},
                {"service_p999_ms", report::Type::Double},
                {"goodput_rps", report::Type::Double},
                {"utility", report::Type::Double},
                {"mean_pace", report::Type::Double},
                {"shed", report::Type::Double}});
            for (std::size_t i = 0; i < all.cells.size(); ++i) {
                const auto &cell = all.cells[i];
                out.items.push_back(cellItem(cell, failures[i]));
                table.addRow({report::Value::str(cell.workload),
                              report::Value::str(cell.collector),
                              report::Value::str(cell.mode),
                              report::Value::dbl(cell.load_factor),
                              report::Value::boolean(cell.ok),
                              report::Value::dbl(cell.arrival_p50_ns / 1e6),
                              report::Value::dbl(cell.arrival_p99_ns / 1e6),
                              report::Value::dbl(cell.arrival_p999_ns / 1e6),
                              report::Value::dbl(cell.service_p50_ns / 1e6),
                              report::Value::dbl(cell.service_p99_ns / 1e6),
                              report::Value::dbl(cell.service_p999_ns / 1e6),
                              report::Value::dbl(cell.goodput_rps),
                              report::Value::dbl(cell.utility),
                              report::Value::dbl(cell.mean_pace),
                              report::Value::dbl(cell.shed)});
            }
            writeReport(tracer, sink, "openloop_live.csv", table,
                        out.counts);
            if (keep_)
                kept_ = std::move(all);
        }
        out.seconds = static_cast<double>(nowNs() - begin) / 1e9;
        return out;
    }

    std::size_t
    crossCheck() override
    {
        const auto library =
            harness::runOpenLoopSweep(latencySensitiveNames(), options_);
        return differingCells(kept_.cells, library.cells, &cellItem);
    }

  private:
    struct Coords
    {
        const workloads::Descriptor *workload;
        gc::Algorithm algorithm;
        std::string mode;
        double factor;
    };

    /** runOpenLoopSweep's live-cell body, one layer call per span. */
    harness::OpenLoopCell
    rebuildCell(const Coords &coords, Tracer *tracer, Counts &counts,
                std::string &failure) const
    {
        const auto &workload = *coords.workload;
        harness::OpenLoopCell cell;
        cell.workload = workload.name;
        cell.collector = gc::algorithmName(coords.algorithm);
        cell.mode = coords.mode;
        cell.load_factor = coords.factor;
        const bool adaptive = coords.mode == "adaptive";

        load::OpenLoopConfig config;
        config.arrival = options_.arrival;
        config.arrival.rate_per_sec = coords.factor * options_.lanes *
                                      1e9 / options_.service_mean_ns;
        config.lanes = options_.lanes;
        config.service_mean_ns = options_.service_mean_ns;
        config.service_sigma = workload.requests.service_sigma;
        config.heavy_tail_fraction = workload.requests.heavy_tail_fraction;
        config.heavy_tail_scale = workload.requests.heavy_tail_scale;
        config.queue_limit = options_.queue_limit;
        config.adaptive_pacing = adaptive;
        config.pacer = options_.pacer;
        load::OpenLoopDriver traffic(config);

        harness::ExperimentOptions run_options = options_.base;
        run_options.invocations = 1;
        const harness::Runner runner(run_options);
        const double heap_mb =
            options_.heap_factor *
            workloads::sizeMinHeapMb(workload, options_.base.size);
        runtime::ExecutionResult run;
        {
            Tracer::Scope span(tracer, execLayer(coords.algorithm));
            run = runner.runOnce(workload, coords.algorithm, heap_mb, 0,
                                 &traffic);
        }
        countRun(run, counts);
        counts.oom_cells += run.oom ? 1 : 0;
        counts.requests += traffic.requests().size();
        counts.arrivals += traffic.arrivals();
        counts.completed += traffic.completed();
        counts.shed += traffic.shedCount();
        if (traffic.pacer() != nullptr)
            counts.pacer_decisions += traffic.pacer()->decisions().size();
        failure = unmodelledFailure(run);
        if (!run.usable() || traffic.completed() == 0)
            return cell;

        cell.ok = true;
        std::vector<double> arrival;
        std::vector<double> service;
        {
            Tracer::Scope span(tracer, "metrics.quantile");
            arrival = traffic.requests().intendedLatencies();
            service = traffic.requests().simpleLatencies();
        }
        cell.arrival_p50_ns = tracedQuantile(tracer, counts, arrival, 0.5);
        cell.arrival_p99_ns = tracedQuantile(tracer, counts, arrival, 0.99);
        cell.arrival_p999_ns =
            tracedQuantile(tracer, counts, arrival, 0.999);
        cell.service_p50_ns = tracedQuantile(tracer, counts, service, 0.5);
        cell.service_p99_ns = tracedQuantile(tracer, counts, service, 0.99);
        cell.service_p999_ns =
            tracedQuantile(tracer, counts, service, 0.999);

        // The sweep's scoring: goodput over the run's wall clock and the
        // shared pacing utility of the mean arrival-stamped latency.
        double latency_sum = 0.0;
        for (double l : arrival)
            latency_sum += l;
        const double completed = static_cast<double>(traffic.completed());
        const double window_sec = run.wall / 1e9;
        cell.goodput_rps = window_sec > 0.0 ? completed / window_sec : 0.0;
        const double mean_latency =
            completed > 0.0 ? latency_sum / completed : 0.0;
        cell.utility = load::pacingUtility(cell.goodput_rps, mean_latency,
                                           options_.pacer);
        cell.shed = static_cast<double>(traffic.shedCount());
        if (adaptive && traffic.pacer() != nullptr) {
            cell.mean_pace = traffic.pacer()->meanRate();
            cell.pacer_digest = load::encodePacerDecisions(
                traffic.pacer()->decisions());
        }
        return cell;
    }

    static Item
    cellItem(const harness::OpenLoopCell &cell, const std::string &failure)
    {
        Item item;
        item.key = cell.workload + "/" + cell.collector + "/" + cell.mode +
                   "/" + std::to_string(cell.load_factor);
        item.broken = !failure.empty();
        item.why = failure;
        Digest digest;
        digest.add(cell.ok);
        for (double v : {cell.arrival_p50_ns, cell.arrival_p99_ns,
                         cell.arrival_p999_ns, cell.service_p50_ns,
                         cell.service_p99_ns, cell.service_p999_ns,
                         cell.goodput_rps, cell.utility, cell.shed,
                         cell.mean_pace})
            digest.add(v);
        digest.add(cell.pacer_digest);
        item.digest = digest.value();
        if (cell.ok && !(cell.arrival_p50_ns <= cell.arrival_p99_ns &&
                         cell.arrival_p99_ns <= cell.arrival_p999_ns &&
                         cell.service_p50_ns <= cell.service_p99_ns &&
                         cell.service_p99_ns <= cell.service_p999_ns &&
                         cell.arrival_p99_ns >= cell.service_p99_ns)) {
            item.broken = true;
            item.why = "open-loop quantiles out of order";
        }
        return item;
    }

    harness::OpenLoopSweepOptions options_;
    std::vector<Coords> grid_;
    harness::OpenLoopSweep kept_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             std::size_t max_cells)
{
    if (name == "lbo_sweep")
        return std::make_unique<LboSweep>(seed, max_cells);
    if (name == "latency_synth")
        return std::make_unique<LatencySynth>(seed, max_cells);
    if (name == "openloop_live")
        return std::make_unique<OpenLoopLive>(seed, max_cells);
    return nullptr;
}

} // namespace perfbench
