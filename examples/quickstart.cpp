/**
 * @file
 * Quickstart: run one benchmark under one collector and read the
 * paper's three measurement axes — wall clock, task clock (total CPU)
 * and the GC event telemetry that LBO distills.
 *
 *   $ quickstart [--workload lusearch] [--collector g1] [--factor 2]
 */

#include <iostream>

#include "harness/runner.hh"
#include "metrics/summary.hh"
#include "support/flags.hh"
#include "support/strfmt.hh"
#include "workloads/registry.hh"

using namespace capo;

int
main(int argc, char **argv)
{
    support::Flags flags("capo quickstart: one workload, one collector");
    flags.addString("workload", "lusearch", "benchmark to run");
    flags.addString("collector", "g1",
                    "serial | parallel | g1 | shenandoah | zgc | genzgc");
    flags.addDouble("factor", 2.0, "heap size as a multiple of the "
                                   "workload's minimum heap (GMD)");
    flags.addInt("iterations", 5, "iterations per invocation (-n)");
    flags.addInt("invocations", 5, "invocations (for the 95 % CI)");
    flags.parse(argc, argv);

    const auto &workload = workloads::byName(flags.getString("workload"));
    gc::Algorithm algorithm;
    if (!gc::tryAlgorithmFromName(flags.getString("collector"),
                                  algorithm)) {
        std::cerr << "quickstart: unknown collector '"
                  << flags.getString("collector")
                  << "' (expected serial, parallel, g1, shenandoah, zgc "
                     "or genzgc)\n";
        return 2;
    }
    const double factor = flags.getDouble("factor");

    harness::ExperimentOptions options;
    options.iterations = static_cast<int>(flags.getInt("iterations"));
    options.invocations = static_cast<int>(flags.getInt("invocations"));
    options.keep_gc_log = true;  // the telemetry below reads run.log

    std::cout << "workload   " << workload.name << " — "
              << workload.summary << "\n"
              << "collector  " << gc::algorithmName(algorithm) << "\n"
              << "heap       " << support::fixed(factor, 1) << "x GMD = "
              << support::fixed(factor * workload.gc.gmd_mb, 0)
              << " MB\n\n";

    harness::Runner runner(options);
    const auto set = runner.run(workload, algorithm, factor);
    if (!set.allCompleted()) {
        std::cout << "run failed: the heap is below this collector's "
                     "minimum for this workload\n";
        return 1;
    }

    const auto wall = metrics::summarize(set.timedWalls());
    const auto cpu = metrics::summarize(set.timedCpus());
    std::cout << "timed iteration (last of " << options.iterations
              << "), " << options.invocations << " invocations:\n"
              << "  wall clock  " << support::humanNanos(wall.mean)
              << " +/- " << support::humanNanos(wall.ci95) << " (95 % CI)\n"
              << "  task clock  " << support::humanNanos(cpu.mean)
              << " +/- " << support::humanNanos(cpu.ci95) << "\n\n";

    const auto &run = set.runs.front();
    std::cout << "collector telemetry (first invocation, whole run):\n"
              << "  collections    " << run.collections << "\n"
              << "  STW pauses     " << run.log.pauseCount() << " ("
              << support::humanNanos(run.log.stwWall()) << " total, max "
              << support::humanNanos(run.log.maxPause()) << ")\n"
              << "  GC CPU         " << support::humanNanos(run.gc_cpu)
              << " of " << support::humanNanos(run.cpu) << " total\n"
              << "  alloc stalls   " << run.stall_count << " ("
              << support::humanNanos(run.log.stallWall()) << ")\n"
              << "  allocated      "
              << support::humanBytes(
                     static_cast<std::uint64_t>(run.total_allocated))
              << "\n";
    return 0;
}
