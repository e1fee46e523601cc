/**
 * @file
 * Extension experiment: SPECjbb2015-style critical-jOPS (paper §3.2
 * mentions the metric when surveying related suites). Under an
 * open-loop load, collector interference caps the injection rate at
 * which tail-latency SLAs can still be met; critical-jOPS is the
 * geometric mean of the highest SLA-meeting rates. Latency-oriented
 * collectors should shine here — unless their CPU appetite slows the
 * requests themselves, the paper's recurring theme.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "metrics/request_synth.hh"
#include "metrics/summary.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

int
runExtCriticalJops(report::ExperimentContext &context)
{
    const auto &workload =
        bench::latencyWorkload(context.flags.getString("workload"));
    const double factor = harness::parseFactor(
        context.flags.getString("factor"), "heap factor");

    harness::ExperimentOptions options = context.options;
    options.invocations = 1;
    options.trace_rate = true;
    harness::Runner runner(options);

    // SLAs on p99 latency, as SPECjbb: 10/25/50/75/100 ms.
    const std::vector<double> slas = {10e6, 25e6, 50e6, 75e6, 100e6};
    // Nominal service demand: 1 ms of work per request.
    const double service_ns = 1e6;

    auto &jops = context.store.table(
        "critical_jops",
        report::Schema{{"workload", report::Type::String},
                       {"collector", report::Type::String},
                       {"completed", report::Type::Bool},
                       {"max_jops", report::Type::Double},
                       {"critical_jops", report::Type::Double},
                       {"p99_at_critical_ms", report::Type::Double}});

    bench::AsciiTable table({"collector", "max jOPS (tested)",
                             "critical-jOPS", "p99 @ critical (ms)"});

    for (auto algorithm : gc::productionCollectors()) {
        const auto set = runner.run(workload, algorithm, factor);
        if (!set.allCompleted()) {
            table.row({gc::algorithmName(algorithm), "DNF", "-", "-"});
            jops.addRow(
                {report::Value::str(workload.name),
                 report::Value::str(gc::algorithmName(algorithm)),
                 report::Value::boolean(false),
                 report::Value::dbl(0.0), report::Value::dbl(0.0),
                 report::Value::dbl(0.0)});
            continue;
        }
        const auto &run = set.runs.front();
        const auto &timed = run.iterations.back();

        // The lanes saturate at lanes/service rate; bracket above it.
        const double max_rate =
            workload.requests.lanes / (service_ns / 1e9);

        auto p99_at = [&](double rate) {
            auto rec = metrics::synthesizeOpenLoopRequests(
                run.rate_timeline, run.baseline_rate,
                workload.requests, timed.wall_begin, timed.wall_end,
                rate, service_ns, support::Rng(91));
            // Arrival-stamped: open-loop p99 must include queueing.
            return metrics::quantile(rec.intendedLatencies(), 0.99);
        };
        const double critical =
            metrics::criticalJops(p99_at, slas, max_rate);

        table.row({gc::algorithmName(algorithm),
                   support::fixed(max_rate, 0),
                   support::fixed(critical, 0),
                   support::fixed(p99_at(critical) / 1e6, 2)});
        jops.addRow({report::Value::str(workload.name),
                     report::Value::str(gc::algorithmName(algorithm)),
                     report::Value::boolean(true),
                     report::Value::dbl(max_rate),
                     report::Value::dbl(critical),
                     report::Value::dbl(p99_at(critical) / 1e6)});
    }
    table.render(std::cout);

    std::cout <<
        "\ncritical-jOPS = geomean over the 10/25/50/75/100 ms p99 SLAs\n"
        "of the highest open-loop injection rate that still meets each\n"
        "SLA, replayed over the collector's measured interference\n"
        "timeline.\n";
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "ext_criticaljops";
    e.title = "critical-jOPS under open-loop load";
    e.paper_ref = "Section 3.2's SPECjbb2015 metric, as an extension";
    e.description =
        "Extension: SPECjbb-style critical-jOPS per collector";
    e.quick_invocations = 1;
    e.quick_iterations = 3;
    e.add_flags = [](support::Flags &flags) {
        flags.addString("factor", "3", "heap factor (x min heap)");
        flags.addString("workload", "cassandra",
                        "latency-sensitive workload to load");
    };
    e.run = runExtCriticalJops;
    return e;
}()};

} // namespace
