/**
 * @file
 * A DaCapo-style command line for the simulated suite:
 *
 *   $ dacapo lusearch -n 5 --gc g1 --heap-factor 2
 *   $ dacapo h2 -p                # print nominal statistics and exit
 *   $ dacapo cassandra --latency-csv out.csv
 *   $ dacapo fop --trace-out fop.json   # Perfetto/Chrome trace
 *
 * Mirrors the harness conventions the paper describes: n iterations
 * with the last one timed, a PASSED line with the timed duration, and
 * the `-p` flag for the per-workload nominal-statistics report.
 */

#include <algorithm>
#include <iostream>
#include <memory>

#include "harness/plan_file.hh"
#include "harness/runner.hh"
#include "metrics/export.hh"
#include "runtime/gc_log.hh"
#include "trace/chrome_export.hh"
#include "trace/metrics_registry.hh"
#include "trace/sink.hh"
#include "metrics/request_synth.hh"
#include "stats/stat_table.hh"
#include "support/flags.hh"
#include "support/logging.hh"
#include "support/strfmt.hh"
#include "support/table.hh"
#include "workloads/plans.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

void
printNominalStats(const workloads::Descriptor &workload)
{
    const auto table = stats::shippedStats();
    std::cout << workload.name << ": " << workload.summary << "\n\n";
    support::TextTable out;
    out.columns({"Metric", "Score", "Value", "Rank", "Description"},
                {support::TextTable::Align::Left,
                 support::TextTable::Align::Right,
                 support::TextTable::Align::Right,
                 support::TextTable::Align::Right,
                 support::TextTable::Align::Left});
    for (const auto &info : stats::catalog()) {
        const auto value = table.get(workload.name, info.id);
        if (!value)
            continue;
        const auto rs = table.rankScore(workload.name, info.id);
        std::string desc = info.description;
        if (desc.size() > 52)
            desc = desc.substr(0, 49) + "...";
        out.row({info.code, std::to_string(rs.score),
                 support::general(*value, 4), std::to_string(rs.rank),
                 desc});
    }
    out.render(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    support::Flags flags("dacapo-style runner for the simulated suite");
    flags.addString("n", "5", "iterations (the last is timed)");
    flags.addString("invocations", "1", "invocations of the benchmark");
    flags.addString("jobs", "1",
                    "invocations to run concurrently (0 = all hardware "
                    "threads); results are identical for any value");
    flags.addAlias("j", "jobs");
    flags.addString("gc", "g1", "collector");
    flags.addString("heap-factor", "2",
                    "heap as a multiple of the minimum (GMD), in "
                    "(0, 1e6]");
    flags.addString("heap-mb", "0", "explicit -Xmx in MB, in (0, 1e6] "
                                    "(0 = use --heap-factor)");
    flags.addString("size", "default",
                    "input size: small | default | large | vlarge");
    flags.addBool("p", false, "print nominal statistics and exit");
    flags.addString("latency-csv", "",
                    "save raw request latencies to this CSV file");
    flags.addBool("verbose-gc", false,
                  "print an -Xlog:gc style collector log");
    flags.addString("seed", std::to_string(0x5eed), "random seed");
    flags.addString("trace-out", "",
                    "write a Chrome/Perfetto trace-event JSON file");
    flags.addString("trace-categories", "all",
                    "categories to trace: sim,runtime,gc,harness,"
                    "metrics | all | none");
    flags.addString("metrics-interval", "10",
                    "counter sampling period in sim-ms (0 disables)");
    flags.addString("metrics-csv", "",
                    "save sampled-metrics summary to this CSV file");
    flags.addString("faults", "",
                    "fault-injection spec, e.g. '0.01' or "
                    "'alloc=0.01,gc=0.005' ('none' disables); a "
                    "faulted run that fails exits 0 with the failure "
                    "quarantined in the report");
    flags.addString("retries", "0",
                    "extra attempts per faulty invocation (only "
                    "meaningful with --faults)");
    flags.parse(argc, argv);

    if (flags.positionals().size() != 1) {
        std::cerr << "usage: dacapo <benchmark> [flags]\nbenchmarks:";
        for (const auto &name : workloads::names())
            std::cerr << ' ' << name;
        std::cerr << "\n";
        return 2;
    }
    // A scratch plan, so the plan keys' validators check the values:
    // a bad one exits 2 instead of running a 0 MB or an infinite heap,
    // or silently running the default size.
    harness::ExperimentPlan plan;
    double heap_factor = 0.0, heap_mb = 0.0;
    const workloads::Descriptor *found = nullptr;
    try {
        found = &harness::resolveWorkload(flags.positionals()[0]);
        heap_factor = harness::parseFactor(flags.getString("heap-factor"),
                                           "--heap-factor");
        if (flags.getString("heap-mb") != "0")
            heap_mb = harness::parseFactor(flags.getString("heap-mb"),
                                           "--heap-mb");
        harness::applyPlanKey(plan, "iterations", flags.getString("n"));
        for (std::string key :
             {"invocations", "jobs", "seed", "size", "faults", "retries",
              "trace_categories", "metrics_interval"}) {
            std::string flag = key;
            std::replace(flag.begin(), flag.end(), '_', '-');
            harness::applyPlanKey(plan, key, flags.getString(flag));
        }
    } catch (const harness::ParseError &e) {
        std::cerr << "dacapo: " << e.what() << "\n";
        return 2;
    }
    const auto &workload = *found;

    if (flags.getBool("p")) {
        printNominalStats(workload);
        return 0;
    }

    auto options = plan.options;
    options.trace_rate = workload.latency_sensitive;

    const std::string trace_out = flags.getString("trace-out");
    const std::string metrics_csv = flags.getString("metrics-csv");
    std::unique_ptr<trace::TraceSink> sink;
    trace::MetricsRegistry registry;
    if (!trace_out.empty() || !metrics_csv.empty()) {
        trace::TraceSink::Options trace_options;
        trace_options.categories = plan.trace_categories;
        sink = std::make_unique<trace::TraceSink>(trace_options);
        options.trace = sink.get();
        options.metrics = &registry;
    }

    if (!workloads::sizeAvailable(workload, options.size))
        support::fatal(workload.name, " has no ",
                       workloads::sizeName(options.size), " size");

    const auto algorithm = gc::algorithmFromName(flags.getString("gc"));
    harness::Runner runner(options);

    std::cout << "===== DaCapo-sim " << workload.name << " starting ("
              << workloads::sizeName(options.size) << ", "
              << gc::algorithmName(algorithm)
              << ") =====\n";

    const auto set =
        heap_mb > 0.0 ? runner.runAtHeapMb(workload, algorithm, heap_mb)
                      : runner.run(workload, algorithm, heap_factor);
    const auto &run = set.runs.front();

    // Trace and metrics files are written on success *and* failure:
    // a timeline of a failing run is exactly what one debugs with.
    const auto writeObservability = [&] {
        if (sink && !trace_out.empty()) {
            if (trace::writeChromeTraceFile(*sink, trace_out))
                std::cout << "saved trace to " << trace_out << "\n";
        }
        if (!metrics_csv.empty()) {
            sink->recordSamples(registry);
            metrics::writeCsvFile(metrics_csv, [&](std::ostream &out) {
                metrics::exportMetricsCsv(registry, out);
            });
            std::cout << "saved metrics summary to " << metrics_csv
                      << "\n";
        }
    };

    for (std::size_t i = 0; i < run.iterations.size(); ++i) {
        std::cout << "===== DaCapo-sim " << workload.name
                  << " iteration " << i + 1 << " in "
                  << support::fixed(run.iterations[i].wall() / 1e6, 0)
                  << " msec =====\n";
    }

    if (!run.usable()) {
        std::cout << "===== DaCapo-sim " << workload.name
                  << " FAILED ("
                  << (run.oom ? "OutOfMemoryError" : "timeout")
                  << ") =====\n";
        if (!run.faults.empty()) {
            std::cout << "===== DaCapo-sim " << workload.name
                      << " quarantined: " << run.faults.size()
                      << " injected fault(s), " << run.attempts
                      << " attempt(s), kind "
                      << harness::errorKind(run) << " =====\n";
        }
        writeObservability();
        // A failure under fault injection is the experiment working as
        // designed, not an error of the harness.
        return options.faults.enabled() ? 0 : 1;
    }

    if (flags.getBool("verbose-gc")) {
        const double capacity =
            (heap_mb > 0.0 ? heap_mb : heap_factor * workload.gc.gmd_mb) *
            1024.0 * 1024.0;
        runtime::formatGcLog(run.log, capacity, std::cout);
    }

    std::cout << "===== DaCapo-sim " << workload.name << " PASSED in "
              << support::fixed(run.timed.wall / 1e6, 0)
              << " msec =====\n";

    if (workload.latency_sensitive) {
        const auto &timed = run.iterations.back();
        const auto requests = metrics::synthesizeRequests(
            run.rate_timeline, run.baseline_rate, workload.requests,
            timed.wall_begin, timed.wall_end,
            support::Rng(options.base_seed));
        auto simple = requests.simpleLatencies();
        auto metered = requests.meteredLatencies(100e6);
        std::cout << "===== DaCapo-sim simple latency: p50 "
                  << support::fixed(metrics::quantile(simple, 0.5) / 1e3,
                                    0)
                  << " usec, p99.9 "
                  << support::fixed(
                         metrics::quantile(simple, 0.999) / 1e3, 0)
                  << " usec =====\n"
                  << "===== DaCapo-sim metered latency (100ms): p50 "
                  << support::fixed(metrics::quantile(metered, 0.5) / 1e3,
                                    0)
                  << " usec, p99.9 "
                  << support::fixed(
                         metrics::quantile(metered, 0.999) / 1e3, 0)
                  << " usec =====\n";

        const std::string csv = flags.getString("latency-csv");
        if (!csv.empty()) {
            metrics::writeCsvFile(csv, [&](std::ostream &out) {
                metrics::exportLatencyCsv(requests, 100e6, out);
            });
            std::cout << "saved raw latency data to " << csv << "\n";
        }
    }

    writeObservability();
    return 0;
}
