/**
 * @file
 * Minimum-heap determination (methodology recommendation H2 and the
 * GMD/GMS/GML/GMU statistics): bisect the smallest heap in which each
 * workload completes, per collector, and compare the G1 result with
 * the shipped GMD.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

int
runTabAMinheap(report::ExperimentContext &context)
{
    harness::ExperimentPlan plan;
    plan.workloads = bench::selectedWorkloads(context, workloads::names());
    plan.collectors = gc::productionCollectors();
    plan.options = context.options;
    const auto grid = bench::minHeapSweep(plan, context, false);

    std::cout << "\n";
    bench::AsciiTable table({"workload", "GMD (shipped)", "G1", "ZGC*",
                             "ZGC*/G1"});
    for (const auto &name : plan.workloads) {
        const double g1 = grid.at(name, gc::Algorithm::G1)->min_heap_mb;
        const double zgc = grid.at(name, gc::Algorithm::Zgc)->min_heap_mb;
        table.row({name,
                   support::fixed(workloads::byName(name).gc.gmd_mb, 0) +
                       " MB",
                   support::fixed(g1, 1), support::fixed(zgc, 1),
                   g1 > 0.0 ? support::fixed(zgc / g1, 2) : "-"});
    }
    table.render(std::cout);
    std::cout << "\nZGC runs without compressed pointers, so its "
                 "minimum heap exceeds G1's\nby roughly the workload's "
                 "GMU/GMD ratio.\n";
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "tabA_minheap";
    e.title = "Minimum heap sizes by collector";
    e.paper_ref = "Section 4.2 / the GMD statistic";
    e.description =
        "Minimum heap per workload and collector (bisection)";
    e.quick_invocations = 1;
    e.quick_iterations = 2;
    e.run = runTabAMinheap;
    return e;
}()};

} // namespace
