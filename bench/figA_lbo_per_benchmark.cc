/**
 * @file
 * Appendix LBO figures (Figures 7, 9, 11, ...): per-benchmark lower
 * bounds on collector overheads (wall clock and task clock) as a
 * function of heap size, for every workload in the suite.
 */

#include "bench/bench_common.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

int
runFigALboPerBenchmark(report::ExperimentContext &context)
{
    harness::ExperimentPlan plan;
    plan.workloads = bench::selectedWorkloads(context, workloads::names());
    plan.collectors = gc::productionCollectors();
    plan.heap_factors = {1.0, 1.5, 2.0, 3.0, 4.0, 6.0};
    plan.options = context.options;
    bench::lboSweep(plan, context, "lbo_per_benchmark", false);
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "figA_lbo_per_benchmark";
    e.title = "Per-benchmark LBO overheads";
    e.paper_ref = "appendix Figures 7, 9, 11, ...";
    e.description = "Appendix: per-benchmark LBO curves";
    e.quick_invocations = 2;
    e.quick_iterations = 2;
    e.run = runFigALboPerBenchmark;
    return e;
}()};

} // namespace
