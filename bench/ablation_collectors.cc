/**
 * @file
 * Ablation study of the collector design mechanisms (DESIGN.md §4):
 * each ablation disables one modelled mechanism and re-measures a
 * sensitive workload, showing that the paper-shaped behaviours are
 * produced by the mechanisms, not baked into the numbers.
 *
 *  - Shenandoah without pacing -> allocation stalls replace throttling
 *    (its lusearch wall-clock signature changes shape).
 *  - ZGC with compressed pointers (footprint 1.0) -> its small-heap
 *    penalty shrinks toward Shenandoah's.
 *  - GenZGC without generational cycles -> ZGC-like CPU cost on
 *    big-live-set workloads.
 *  - G1 without concurrent marking (IHOP above 100 %) -> full-GC
 *    fallbacks replace mixed collections.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "gc/concurrent_collector.hh"
#include "gc/g1_collector.hh"
#include "harness/runner.hh"
#include "workloads/plans.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

runtime::ExecutionResult
runVariant(const workloads::Descriptor &workload, double factor,
           runtime::CollectorRuntime &collector,
           const harness::ExperimentOptions &options)
{
    const auto setup = workloads::makeSetup(
        workload, options.machine, options.size, options.iterations);
    runtime::ExecutionConfig config;
    config.cpus = options.machine.cpus;
    config.heap_bytes = factor * setup.reference_min_heap_bytes;
    config.survivor_fraction = setup.survivor_fraction;
    config.survivor_reference_bytes =
        0.95 * setup.reference_min_heap_bytes;
    config.seed = options.base_seed;
    config.time_limit_sec = options.time_limit_sec;
    config.keep_gc_log = true;
    return runtime::runExecution(config, setup.plan, setup.live,
                                 collector);
}

void
report(bench::AsciiTable &table, report::ResultTable &rows,
       const std::string &workload, const std::string &label,
       const runtime::ExecutionResult &result)
{
    if (!result.usable()) {
        table.row({workload, label, "-", "-", "-", "-", "-"});
        rows.addRow({report::Value::str(workload),
                     report::Value::str(label),
                     report::Value::boolean(false),
                     report::Value::dbl(0.0), report::Value::dbl(0.0),
                     report::Value::dbl(0.0),
                     report::Value::uinteger(0),
                     report::Value::dbl(0.0)});
        return;
    }
    table.row({workload, label,
               support::fixed(result.timed.wall / 1e9, 3),
               support::fixed(result.timed.cpu / 1e9, 3),
               support::fixed(result.log.stwWall() / 1e6, 1),
               std::to_string(result.stall_count),
               support::fixed(result.log.stallWall() / 1e6, 1)});
    rows.addRow(
        {report::Value::str(workload), report::Value::str(label),
         report::Value::boolean(true),
         report::Value::dbl(result.timed.wall / 1e9),
         report::Value::dbl(result.timed.cpu / 1e9),
         report::Value::dbl(result.log.stwWall() / 1e6),
         report::Value::uinteger(
             static_cast<std::uint64_t>(result.stall_count)),
         report::Value::dbl(result.log.stallWall() / 1e6)});
}

int
runAblation(report::ExperimentContext &context)
{
    auto options = context.options;
    options.invocations = 1;

    auto &rows = context.store.table(
        "ablations",
        report::Schema{{"workload", report::Type::String},
                       {"variant", report::Type::String},
                       {"usable", report::Type::Bool},
                       {"timed_wall_s", report::Type::Double},
                       {"timed_cpu_s", report::Type::Double},
                       {"stw_ms", report::Type::Double},
                       {"stalls", report::Type::Uint},
                       {"stall_wall_ms", report::Type::Double}});

    bench::AsciiTable table({"workload", "variant", "timed wall (s)",
                             "timed cpu (s)", "stw (ms)", "stalls",
                             "stall wall (ms)"});

    // 1. Shenandoah pacing on/off on the suite's fastest allocator.
    {
        const auto &lusearch = workloads::byName("lusearch");
        auto paced = gc::shenandoahTuning();
        auto unpaced = paced;
        unpaced.pacing = false;
        gc::ConcurrentCollector with("Shen.", 2014, paced);
        gc::ConcurrentCollector without("Shen-nopace", 2014, unpaced);
        // Moderate pressure (3x): pacing, not stalling, is the
        // operative mechanism; at very tight heaps both variants are
        // reclamation-bound and converge.
        report(table, rows, "lusearch@3x", "Shenandoah (pacing)",
               runVariant(lusearch, 3.0, with, options));
        report(table, rows, "lusearch@3x", "Shenandoah (no pacing)",
               runVariant(lusearch, 3.0, without, options));
        table.separator();
    }

    // 2. ZGC with and without compressed-pointer footprint.
    {
        const auto &biojava = workloads::byName("biojava");
        gc::ConcurrentCollector fat("ZGC*", 2018, gc::zgcTuning(),
                                    biojava.pointerFootprint());
        gc::ConcurrentCollector slim("ZGC-compressed", 2018,
                                     gc::zgcTuning(), 1.0);
        report(table, rows, "biojava@2x", "ZGC (no compressed oops)",
               runVariant(biojava, 2.0, fat, options));
        report(table, rows, "biojava@2x", "ZGC (compressed oops)",
               runVariant(biojava, 2.0, slim, options));
        table.separator();
    }

    // 3. Generational vs single-generation ZGC on a big live set.
    {
        const auto &h2 = workloads::byName("h2");
        gc::ConcurrentCollector gen("GenZGC*", 2023,
                                    gc::genZgcTuning(), 1.0);
        auto flat_tuning = gc::genZgcTuning();
        flat_tuning.generational = false;
        gc::ConcurrentCollector flat("GenZGC-flat", 2023, flat_tuning,
                                     1.0);
        report(table, rows, "h2@3x", "GenZGC (generational)",
               runVariant(h2, 3.0, gen, options));
        report(table, rows, "h2@3x", "GenZGC (single-generation)",
               runVariant(h2, 3.0, flat, options));
        table.separator();
    }

    // 4. G1 with marking disabled (IHOP beyond reach): promoted
    // garbage can then only be reclaimed by slow full-GC fallbacks.
    // lusearch's allocation rate promotes more than a 2x heap can
    // absorb between old collections.
    {
        const auto &lusearch = workloads::byName("lusearch");
        gc::G1Collector normal(gc::g1Tuning());
        auto no_mark_tuning = gc::g1Tuning();
        no_mark_tuning.ihop_fraction = 10.0;  // never triggers
        gc::G1Collector no_mark(no_mark_tuning);
        report(table, rows, "lusearch@2x", "G1 (concurrent marking)",
               runVariant(lusearch, 2.0, normal, options));
        report(table, rows, "lusearch@2x", "G1 (no marking: full-GC "
                                           "fallback)",
               runVariant(lusearch, 2.0, no_mark, options));
    }

    table.render(std::cout);
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "ablation_collectors";
    e.title = "Collector-mechanism ablations";
    e.paper_ref = "DESIGN.md section 4";
    e.description = "Ablations of the collector mechanism models";
    e.quick_invocations = 1;
    e.quick_iterations = 2;
    e.run = runAblation;
    return e;
}()};

} // namespace
