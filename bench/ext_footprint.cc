/**
 * @file
 * Extension experiment (paper Section 4.2's suggestion): compare
 * collectors by the area under the memory-use curve rather than by
 * -Xmx. Two collectors given the same heap limit can hold very
 * different average footprints: eager STW designs collect to the
 * floor often, while concurrent designs ride high between cycles —
 * invisible to a minimum-heap methodology, visible here.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "metrics/footprint.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

int
runExtFootprint(report::ExperimentContext &context)
{
    auto options = context.options;
    options.invocations = 1;
    harness::Runner runner(options);
    const double factor = harness::parseFactor(
        context.flags.getString("factor"), "heap factor");

    const auto selection = bench::selectedWorkloads(
        context, {"lusearch", "h2", "cassandra", "pmd", "xalan"});

    auto &footprint = context.store.table(
        "footprint",
        report::Schema{{"workload", report::Type::String},
                       {"collector", report::Type::String},
                       {"xmx_mb", report::Type::Double},
                       {"completed", report::Type::Bool},
                       {"avg_footprint_mb", report::Type::Double}});

    std::vector<std::string> header = {"workload", "Xmx (MB)"};
    for (auto algorithm : gc::productionCollectors()) {
        header.push_back(std::string(gc::algorithmName(algorithm)) +
                         " avg MB");
    }
    bench::AsciiTable table(header);

    for (const auto &name : selection) {
        const auto &workload = workloads::byName(name);
        std::vector<std::string> row = {
            name, support::fixed(workload.gc.gmd_mb * factor, 0)};
        for (auto algorithm : gc::productionCollectors()) {
            const auto set = runner.run(workload, algorithm, factor);
            if (!set.allCompleted()) {
                row.push_back("DNF");
                footprint.addRow(
                    {report::Value::str(name),
                     report::Value::str(gc::algorithmName(algorithm)),
                     report::Value::dbl(workload.gc.gmd_mb * factor),
                     report::Value::boolean(false),
                     report::Value::dbl(0.0)});
                continue;
            }
            const auto &run = set.runs.front();
            const auto summary = metrics::integrateFootprint(
                run.log, 0.0, run.wall);
            row.push_back(support::fixed(
                summary.average_bytes / (1024.0 * 1024.0), 1));
            footprint.addRow(
                {report::Value::str(name),
                 report::Value::str(gc::algorithmName(algorithm)),
                 report::Value::dbl(workload.gc.gmd_mb * factor),
                 report::Value::boolean(true),
                 report::Value::dbl(summary.average_bytes /
                                    (1024.0 * 1024.0))});
        }
        table.row(row);
    }
    table.render(std::cout);

    std::cout <<
        "\nSame -Xmx, different memory actually held: collectors that\n"
        "defer collection (concurrent designs, large nurseries) carry\n"
        "a higher average footprint than the heap limit alone\n"
        "suggests — the paper's point about -Xmx being a peak-usage\n"
        "proxy rather than a footprint measure.\n";
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "ext_footprint";
    e.title = "Average heap footprint by collector";
    e.paper_ref = "Section 4.2's suggested 'area under the memory use "
                  "curve' metric";
    e.description =
        "Extension: area-under-the-memory-curve footprints";
    e.quick_invocations = 1;
    e.quick_iterations = 2;
    e.add_flags = [](support::Flags &flags) {
        flags.addString("factor", "3", "heap factor (x min heap)");
    };
    e.run = runExtFootprint;
    return e;
}()};

} // namespace
