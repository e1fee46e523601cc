/**
 * @file
 * Bytecode instrumentation (Section 5.1): the suite ships the tools
 * that compute the allocation (A) and bytecode (B) statistic groups
 * by instrumented execution. This binary runs capo's equivalent —
 * synthesize each workload's program, execute it under the
 * instrumenting interpreter, derive the statistics — and prints
 * measured vs shipped values.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "bytecode/characterize.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

int
runTabC(report::ExperimentContext &context)
{
    bytecode::CharacterizeOptions options;
    options.instruction_budget = static_cast<std::uint64_t>(
        bench::boundedInt(context.flags, "budget", 1, 1'000'000'000));
    const auto selection = bench::selectedWorkloads(
        context,
        {"lusearch", "h2", "fop", "pmd", "luindex", "sunflow", "jython"});

    auto &bytecode_stats = context.store.table(
        "bytecode_stats",
        report::Schema{{"workload", report::Type::String},
                       {"stat", report::Type::String},
                       {"shipped", report::Type::Double},
                       {"measured", report::Type::Double},
                       {"have_shipped", report::Type::Bool}});

    bench::AsciiTable table(
        {"workload", "stat", "shipped", "measured", "ratio"});

    for (const auto &name : selection) {
        const auto &workload = workloads::byName(name);
        if (!workloads::available(workload.bytecode.bub)) {
            table.row({name, "(no instrumentation support)", "-", "-",
                       "-"});
            continue;
        }
        std::cerr << "  instrumenting " << name << "...\n";
        const auto measured =
            bytecode::characterizeBytecode(workload, options);

        auto row = [&](const char *stat, double shipped,
                       double value) {
            table.row({name, stat,
                       workloads::available(shipped)
                           ? support::general(shipped, 4)
                           : "-",
                       support::general(value, 4),
                       (workloads::available(shipped) && shipped > 0.0)
                           ? support::fixed(value / shipped, 2)
                           : "-"});
            bytecode_stats.addRow(
                {report::Value::str(name), report::Value::str(stat),
                 report::Value::dbl(
                     workloads::available(shipped) ? shipped : 0.0),
                 report::Value::dbl(value),
                 report::Value::boolean(
                     workloads::available(shipped))});
        };
        row("AOA (avg object bytes)", workload.alloc.aoa, measured.aoa);
        row("AOM (median bytes)", workload.alloc.aom, measured.aom);
        row("ARA (bytes/usec)", workload.alloc.ara, measured.ara);
        row("BAL (aaload/usec)", workload.bytecode.bal, measured.bal);
        row("BGF (getfield/usec)", workload.bytecode.bgf, measured.bgf);
        row("BPF (putfield/usec)", workload.bytecode.bpf, measured.bpf);
        row("BUB (Kbytecodes)", workload.bytecode.bub, measured.bub);
        row("BUF (Kfunctions)", workload.bytecode.buf, measured.buf);
        row("BEF (focus)", workload.bytecode.bef, measured.bef);
        table.separator();
    }
    table.render(std::cout);

    std::cout <<
        "\nRatios near 1 mean the synthesized program, executed under\n"
        "instrumentation, reproduces the published characterization;\n"
        "rare opcodes carry ~1/sqrt(sites) single-realization noise\n"
        "(see tests/bytecode). BUB undershoots where the execution\n"
        "budget does not touch all cold code — exactly why the real\n"
        "tools are 'time-consuming' (Section 5.1).\n";
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "tabC_bytecode";
    e.title = "Instrumented bytecode characterization";
    e.paper_ref = "Section 5.1 (the shipped instrumentation tools)";
    e.description =
        "Section 5.1: bytecode-instrumented A/B statistics";
    e.add_flags = [](support::Flags &flags) {
        flags.addInt("budget", 8'000'000,
                     "instructions to execute per workload (1 to "
                     "1e9)");
    };
    e.run = runTabC;
    return e;
}()};

} // namespace
