/**
 * @file
 * Appendix Tables 3-22: complete nominal statistics for each
 * workload — DaCapo's `-p` output: Score, Value, Rank, and the
 * suite-wide Min/Median/Max for every available metric, plus the
 * workload's description.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "stats/stat_table.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

void
printWorkloadTable(const stats::StatTable &table,
                   const workloads::Descriptor &workload,
                   report::ResultTable &rows)
{
    std::cout << "\n## " << workload.name
              << (workload.is_new ? " (new in Chopin)" : "") << "\n"
              << workload.summary << "\n\n";

    bench::AsciiTable out({"Metric", "Score", "Value", "Rank", "Min",
                           "Median", "Max", "Description"});
    for (const auto &info : stats::catalog()) {
        const auto value = table.get(workload.name, info.id);
        if (!value)
            continue;
        const auto rs = table.rankScore(workload.name, info.id);
        const auto range = table.range(info.id);
        std::string desc = info.description;
        if (desc.size() > 48)
            desc = desc.substr(0, 45) + "...";
        out.row({info.code, std::to_string(rs.score),
                 support::general(*value, 4), std::to_string(rs.rank),
                 support::general(range.min, 4),
                 support::general(range.median, 4),
                 support::general(range.max, 4), desc});
        rows.addRow({report::Value::str(workload.name),
                     report::Value::str(info.code),
                     report::Value::integer(rs.score),
                     report::Value::dbl(*value),
                     report::Value::integer(rs.rank),
                     report::Value::dbl(range.min),
                     report::Value::dbl(range.median),
                     report::Value::dbl(range.max)});
    }
    out.render(std::cout);
}

int
runTab03(report::ExperimentContext &context)
{
    auto &rows = context.store.table(
        "nominal_stats",
        report::Schema{{"workload", report::Type::String},
                       {"metric", report::Type::String},
                       {"score", report::Type::Int},
                       {"value", report::Type::Double},
                       {"rank", report::Type::Int},
                       {"min", report::Type::Double},
                       {"median", report::Type::Double},
                       {"max", report::Type::Double}});

    const auto table = stats::shippedStats();
    if (!context.flags.positionals().empty()) {
        for (const auto &name : bench::selectedWorkloads(context, {}))
            printWorkloadTable(table, workloads::byName(name), rows);
        return 0;
    }
    for (const auto &workload : workloads::suite())
        printWorkloadTable(table, workload, rows);
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "tab03_nominal_all";
    e.title = "Complete nominal statistics (the -p output)";
    e.paper_ref = "appendix Tables 3-22";
    e.description =
        "Appendix: complete nominal statistics per workload (-p)";
    e.run = runTab03;
    return e;
}()};

} // namespace
