/**
 * @file
 * Extension experiment: open-loop traffic vs GC pacing as congestion
 * control. The paper (§4.4) measures user-experienced latency under
 * closed-loop DaCapo workloads; this extension attaches live
 * open-loop arrival agents (load/driver) and compares three regimes
 * per load factor: closed-loop post-hoc synthesis, the collector's
 * static free-heap pacer, and the utility-gradient feedback pacer
 * (load/pacer). The table makes two gaps directly visible: the
 * coordinated-omission gap (arrival- vs service-stamped p99) and the
 * pacing-policy gap (utility static vs adaptive).
 */

#include <iostream>

#include "bench/bench_common.hh"

using namespace capo;

namespace {

int
runExtOpenLoop(report::ExperimentContext &context)
{
    const auto &flags = context.flags;
    // --rates, --modes and --arrival take the openloop plan's rate,
    // pacing and arrival values, so its validators check them.
    harness::ExperimentPlan plan;
    plan.workloads = {
        bench::latencyWorkload(flags.getString("workload")).name};
    plan.collectors = {gc::Algorithm::Shenandoah};
    plan.heap_factors = {
        harness::parseFactor(flags.getString("factor"), "heap factor")};
    plan.options = context.options;
    harness::applyPlanKey(plan, "rate", flags.getString("rates"));
    harness::applyPlanKey(plan, "pacing", flags.getString("modes"));
    harness::applyPlanKey(plan, "arrival", flags.getString("arrival"));
    // A cell's cost grows faster than its lane count (at load 1.2, 64
    // lanes run in 0.8 s, 256 in 9 s, 1024 for minutes).
    bench::openLoopSweep(
        plan, context,
        static_cast<int>(bench::boundedInt(flags, "lanes", 1, 64)),
        false);

    std::cout <<
        "\narrival_p99 stamps latency from each request's arrival, so its\n"
        "gap to service_p99 is the coordinated-omission error; 'closed'\n"
        "synthesizes traffic post hoc while 'static'/'adaptive' attach\n"
        "live open-loop agents under the named GC pacing policy.\n";
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "ext_openloop_pacing";
    e.title = "open-loop traffic vs feedback GC pacing";
    e.paper_ref = "Section 4.4's latency lens, as an extension";
    e.description =
        "Extension: closed vs open loop, static vs adaptive pacing";
    e.quick_invocations = 1;
    e.quick_iterations = 2;
    e.add_flags = [](support::Flags &flags) {
        flags.addString("factor", "2", "heap factor (x min heap)");
        flags.addString("workload", "lusearch",
                        "latency-sensitive workload to load");
        flags.addString("rates", "0.5,1.2",
                        "load factors (1.0 = lane saturation), in "
                        "(0, 100]");
        flags.addString("arrival", "poisson",
                        "arrival process (poisson|onoff|diurnal)");
        flags.addString("modes", "closed,static,adaptive",
                        "comparison modes to run");
        flags.addInt("lanes", 8, "open-loop service lanes (1 to 64)");
    };
    e.run = runExtOpenLoop;
    return e;
}()};

} // namespace
