/**
 * @file
 * Figure 5: per-benchmark LBO case studies — cassandra (task clock
 * diverges from wall clock as concurrent collectors soak up idle
 * cores) and lusearch (Shenandoah's pacing throttles the suite's
 * fastest allocator: very high wall overhead, lower task-clock
 * overhead).
 */

#include <iostream>

#include "bench/bench_common.hh"

using namespace capo;

namespace {

int
runFig05(report::ExperimentContext &context)
{
    harness::ExperimentPlan plan;
    plan.workloads = {"cassandra", "lusearch"};
    plan.collectors = gc::productionCollectors();
    plan.heap_factors = {1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0};
    plan.options = context.options;
    bench::lboSweep(plan, context, "lbo_cases", false);

    std::cout <<
        "\nPaper reference: cassandra's task-clock overheads far exceed\n"
        "its wall-clock overheads (collectors absorb idle cores);\n"
        "lusearch under Shenandoah shows the opposite: pacing throttles\n"
        "the mutator (wall > 2x) while task clock stays lower.\n";
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "fig05_lbo_cases";
    e.title = "LBO case studies: cassandra and lusearch";
    e.paper_ref = "Figure 5(a-d)";
    e.description =
        "Figure 5: cassandra and lusearch LBO case studies";
    e.run = runFig05;
    return e;
}()};

} // namespace
