/**
 * @file
 * Appendix latency figures (Figures 15, 24, 29, 34, 39, 44, ...):
 * simple and metered latency distributions for all nine
 * latency-sensitive workloads at 2x and 6x heap.
 */

#include <iostream>

#include "bench/latency_figure.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

int
runFigALatencyAll(report::ExperimentContext &context)
{
    std::vector<std::string> latency;
    for (const auto *workload : workloads::latencySensitive())
        latency.push_back(workload->name);
    const auto selection = bench::selectedWorkloads(context, latency);

    for (const auto &name : selection) {
        std::cerr << "  measuring " << name << "...\n";
        std::cout << "\n# ---- " << name << " ----\n";
        bench::latencyFigure(workloads::byName(name), context.options,
                             {2.0, 6.0}, &context.store);
    }
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "figA_latency_all";
    e.title = "Per-workload latency distributions";
    e.paper_ref = "appendix Figures 15, 24, 29, 34, 39, 44, ...";
    e.description = "Appendix: latency distributions for all nine "
                    "latency-sensitive workloads";
    e.quick_invocations = 1;
    e.quick_iterations = 2;
    e.run = runFigALatencyAll;
    return e;
}()};

} // namespace
