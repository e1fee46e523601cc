/**
 * @file
 * The plan experiments `lbo`, `latency`, `minheap` and `openloop`:
 * the four kinds of definition file (harness/plan_file.hh), with the
 * plan keys as flags. `runbms plan.capo` runs one with the file's
 * keys. Each fills one typed table and, with --artifacts, writes the
 * CSV files plan runs write at the top of the directory.
 */

#include <filesystem>
#include <iostream>
#include <memory>

#include "bench/bench_common.hh"
#include "harness/latency_experiment.hh"
#include "harness/lbo_experiment.hh"
#include "harness/minheap.hh"
#include "harness/openloop_experiment.hh"
#include "metrics/export.hh"
#include "trace/chrome_export.hh"
#include "trace/metrics_registry.hh"
#include "trace/sink.hh"

using namespace capo;

namespace {

using Kind = harness::ExperimentPlan::Kind;

void
reportRestored(std::size_t cells)
{
    if (cells > 0)
        std::cerr << "  restored " << cells << " cell(s) from checkpoint\n";
}

/** Report quarantined cells, one line per failed invocation. */
void
printErrors(const std::vector<harness::CellError> &errors)
{
    for (const auto &e : errors) {
        std::cerr << "  quarantined " << e.workload << "/" << e.collector
                  << " at " << support::fixed(e.heap_factor, 2)
                  << "x, invocation " << e.invocation << ", after "
                  << e.attempts << " attempt(s): " << e.kind << "\n";
    }
}

} // namespace

void
bench::lboSweep(const harness::ExperimentPlan &plan,
                report::ExperimentContext &context,
                const std::string &table, bool want_csv)
{
    harness::LboSweepOptions sweep;
    sweep.factors = plan.heap_factors;
    sweep.collectors = plan.collectors;
    sweep.base = plan.options;
    sweep.journal = context.journal();

    auto &lbo = context.store.table(
        table, report::Schema{{"workload", report::Type::String},
                              {"collector", report::Type::String},
                              {"factor", report::Type::Double},
                              {"completed", report::Type::Bool},
                              {"wall_lbo", report::Type::Double},
                              {"cpu_lbo", report::Type::Double}});
    std::vector<harness::CellError> errors;
    for (const auto &name : plan.workloads) {
        std::cerr << "  lbo sweep: " << name << "\n";
        const auto result =
            harness::runLboSweep(workloads::byName(name), sweep);
        reportRestored(result.restored_cells);
        errors.insert(errors.end(), result.errors.begin(),
                      result.errors.end());
        for (auto algorithm : sweep.collectors) {
            const std::string collector = gc::algorithmName(algorithm);
            for (double f : sweep.factors) {
                const bool done = result.completedAt(collector, f);
                const auto o = done ? result.analysis.overhead(collector, f)
                                    : metrics::LboOverhead{};
                lbo.addRow({report::Value::str(name),
                            report::Value::str(collector),
                            report::Value::dbl(f),
                            report::Value::boolean(done),
                            report::Value::dbl(o.wall),
                            report::Value::dbl(o.cpu)});
            }
        }
        if (want_csv) {
            context.artifacts.write(
                "lbo_" + name + ".csv", [&](std::ostream &out) {
                    metrics::exportLboCsv(result.analysis, out);
                });
        }
    }
    bench::printTable(lbo);
    printErrors(errors);
}

namespace {

void
runLatency(const harness::ExperimentPlan &plan,
           report::ExperimentContext &context, bool want_csv)
{
    harness::LatencySweepOptions sweep;
    sweep.factors = plan.heap_factors;
    sweep.collectors = plan.collectors;
    sweep.base = plan.options;
    sweep.journal = context.journal();
    // Raw per-request CSVs cannot restore from journaled quantiles,
    // so CSV-producing latency sweeps re-run every cell
    // (deterministically) while still journaling for table-only
    // resumes — the same bypass traced LBO sweeps use.
    sweep.want_raw = want_csv;
    const auto result = harness::runLatencySweep(plan.workloads, sweep);
    reportRestored(result.restored_cells);

    auto &latency = context.store.table(
        "latency",
        report::Schema{{"workload", report::Type::String},
                       {"collector", report::Type::String},
                       {"factor", report::Type::Double},
                       {"completed", report::Type::Bool},
                       {"p50_ms", report::Type::Double},
                       {"p99_ms", report::Type::Double},
                       {"arrival_p99_ms", report::Type::Double},
                       {"p999_ms", report::Type::Double},
                       {"metered_p50_ms", report::Type::Double},
                       {"metered_p999_ms", report::Type::Double}});
    for (const auto &cell : result.cells) {
        latency.addRow({report::Value::str(cell.workload),
                        report::Value::str(cell.collector),
                        report::Value::dbl(cell.factor),
                        report::Value::boolean(cell.ok),
                        report::Value::dbl(cell.p50_ns / 1e6),
                        report::Value::dbl(cell.p99_ns / 1e6),
                        report::Value::dbl(cell.intended_p99_ns / 1e6),
                        report::Value::dbl(cell.p999_ns / 1e6),
                        report::Value::dbl(cell.metered_p50_ns / 1e6),
                        report::Value::dbl(cell.metered_p999_ns / 1e6)});
        if (want_csv && cell.ok && cell.have_raw) {
            context.artifacts.write(
                "latency_" + cell.workload + "_" + cell.collector + "_" +
                    support::fixed(cell.factor, 1) + "x.csv",
                [&](std::ostream &out) {
                    metrics::exportLatencyCsv(
                        cell.requests, sweep.metered_window_ns, out);
                });
        }
    }
    bench::printTable(latency);
}

} // namespace

void
bench::openLoopSweep(const harness::ExperimentPlan &plan,
                     report::ExperimentContext &context, int lanes,
                     bool want_csv)
{
    harness::OpenLoopSweepOptions sweep;
    sweep.load_factors = plan.load_factors;
    sweep.collectors = plan.collectors;
    sweep.modes = plan.pacing_modes;
    sweep.heap_factor = plan.heap_factors.front();
    sweep.arrival = plan.arrival;
    sweep.lanes = lanes;
    sweep.base = plan.options;
    sweep.journal = context.journal();
    const auto result = harness::runOpenLoopSweep(plan.workloads, sweep);
    reportRestored(result.restored_cells);

    auto &out = context.store.table(
        "openloop",
        report::Schema{{"workload", report::Type::String},
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
    for (const auto &cell : result.cells) {
        out.addRow({report::Value::str(cell.workload),
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
    bench::printTable(out);

    if (!want_csv)
        return;
    context.artifacts.write("openloop.csv", [&](std::ostream &out) {
        out << "workload,collector,mode,load_factor,ok,arrival_p50_ms,"
               "arrival_p99_ms,arrival_p999_ms,service_p50_ms,"
               "service_p99_ms,service_p999_ms,goodput_rps,utility,shed,"
               "mean_pace\n";
        for (const auto &cell : result.cells) {
            out << cell.workload << "," << cell.collector << ","
                << cell.mode << "," << support::fixed(cell.load_factor, 3)
                << "," << (cell.ok ? "1" : "0");
            for (double ns :
                 {cell.arrival_p50_ns, cell.arrival_p99_ns,
                  cell.arrival_p999_ns, cell.service_p50_ns,
                  cell.service_p99_ns, cell.service_p999_ns})
                out << "," << support::fixed(ns / 1e6, 4);
            out << "," << support::fixed(cell.goodput_rps, 2) << ","
                << support::fixed(cell.utility, 4) << ","
                << support::fixed(cell.shed, 0) << ","
                << support::fixed(cell.mean_pace, 4) << "\n";
        }
    });
}

harness::MinHeapGrid
bench::minHeapSweep(const harness::ExperimentPlan &plan,
                    report::ExperimentContext &context, bool want_csv)
{
    std::cerr << "  minheap grid: " << plan.workloads.size() << " x "
              << plan.collectors.size() << " cells\n";
    const auto grid = harness::findMinHeapGrid(
        plan.workloads, plan.collectors, plan.options, 0.02,
        context.journal());

    auto &minheap = context.store.table(
        "minheap",
        report::Schema{{"workload", report::Type::String},
                       {"collector", report::Type::String},
                       {"converged", report::Type::Bool},
                       {"min_heap_mb", report::Type::Double}});
    std::string csv = "workload,collector,min_heap_mb\n";
    for (const auto &cell : grid.cells) {
        const std::string collector = gc::algorithmName(cell.algorithm);
        csv += cell.workload + "," + collector + "," +
               support::fixed(cell.result.min_heap_mb, 2) + "\n";
        minheap.addRow({report::Value::str(cell.workload),
                        report::Value::str(collector),
                        report::Value::boolean(cell.result.converged),
                        report::Value::dbl(cell.result.min_heap_mb)});
    }
    bench::printTable(minheap);
    if (want_csv) {
        context.artifacts.write(
            "minheap.csv", [&](std::ostream &out) { out << csv; });
    }
    return grid;
}

namespace {

int
runPlan(Kind kind, report::ExperimentContext &context)
{
    auto plan =
        harness::planFromFlags(kind, context.flags, context.options);
    const bool want_csv = !context.flags.getString("artifacts").empty();
    // The plan's fault spec reaches its artifacts too: artifact_io
    // faults fire on the CSV and trace writes, retried --retries times.
    context.artifacts.armFaults(plan.options.faults,
                                plan.options.base_seed);
    context.artifacts.setRetries(plan.options.retries);

    std::unique_ptr<trace::TraceSink> sink;
    trace::MetricsRegistry registry;
    if (!plan.trace_out.empty()) {
        trace::TraceSink::Options trace_options;
        trace_options.categories = plan.trace_categories;
        sink = std::make_unique<trace::TraceSink>(trace_options);
        plan.options.trace = sink.get();
        plan.options.metrics = &registry;
    }

    switch (kind) {
      case Kind::Lbo:
        bench::lboSweep(plan, context, "lbo", want_csv);
        break;
      case Kind::Latency:
        runLatency(plan, context, want_csv);
        break;
      case Kind::MinHeap:
        bench::minHeapSweep(plan, context, want_csv);
        break;
      case Kind::OpenLoop:
        bench::openLoopSweep(plan, context,
                             harness::OpenLoopSweepOptions{}.lanes,
                             want_csv);
        break;
    }

    if (sink) {
        // Absolutized, so the sink's root does not move the trace.
        if (trace::writeChromeTraceArtifact(
                *sink, context.artifacts,
                std::filesystem::absolute(plan.trace_out).string()))
            std::cout << "saved trace to " << plan.trace_out << "\n";
        if (want_csv) {
            sink->recordSamples(registry);
            context.artifacts.write("metrics.csv", [&](std::ostream &out) {
                metrics::exportMetricsCsv(registry, out);
            });
        }
    }
    return 0;
}

report::Experiment
planExperiment(Kind kind, const char *title, const char *paper_ref)
{
    report::Experiment e;
    e.name = harness::planKindName(kind);
    e.title = title;
    e.paper_ref = paper_ref;
    e.description = std::string("Plan experiment: ") + title;
    // With no flags, the experiment runs what an empty plan runs.
    e.quick_invocations = harness::ExperimentOptions{}.invocations;
    e.quick_iterations = harness::ExperimentOptions{}.iterations;
    e.add_flags = [kind](support::Flags &flags) {
        harness::addPlanFlags(kind, flags);
    };
    e.run = [kind](report::ExperimentContext &context) {
        return runPlan(kind, context);
    };
    return e;
}

const report::RegisterExperiment kLbo{planExperiment(
    Kind::Lbo, "LBO per workload, collector and heap factor",
    "Sections 4.2 / 4.5")};
const report::RegisterExperiment kLatency{planExperiment(
    Kind::Latency, "simple, arrival-stamped and metered latency",
    "Section 4.4")};
const report::RegisterExperiment kMinHeap{planExperiment(
    Kind::MinHeap, "minimum heap per workload and collector",
    "Section 4.2 / recommendation H2")};
const report::RegisterExperiment kOpenLoop{planExperiment(
    Kind::OpenLoop, "open-loop traffic vs GC pacing per load factor",
    "Section 4.4's latency lens, as an extension")};

} // namespace
