#include "harness/characterize.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "counters/perf_session.hh"
#include "exec/parallel_for.hh"
#include "exec/pool.hh"
#include "harness/minheap.hh"
#include "metrics/summary.hh"
#include "support/logging.hh"

namespace capo::harness {

namespace {

using stats::MetricId;

constexpr double kMb = 1024.0 * 1024.0;

/** Percentage slowdown of @p test relative to @p base. */
double
slowdownPct(double test, double base)
{
    return base > 0.0 ? 100.0 * (test / base - 1.0) : 0.0;
}

/** Mean timed-iteration wall over completed runs (0 if none). */
double
meanTimedWall(const InvocationSet &set)
{
    const auto walls = set.timedWalls();
    return walls.empty() ? 0.0 : metrics::mean(walls);
}

} // namespace

void
measureWorkloadStats(const workloads::Descriptor &workload,
                     const CharacterizeOptions &options,
                     stats::StatTable &out)
{
    const auto &w = workload.name;
    out.addWorkload(w);

    ExperimentOptions base = options.base;
    Runner runner(base);

    // ----- Baseline at 2x GMD with the default collector (G1). -----
    const auto baseline = runner.run(workload, gc::Algorithm::G1, 2.0);
    if (!baseline.allCompleted()) {
        support::warn("characterization baseline failed for ", w);
        return;
    }
    const double base_wall = meanTimedWall(baseline);
    out.set(w, MetricId::PET, base_wall / 1e9);

    const auto &first = baseline.runs.front();

    // GC telemetry at 2x (GCC, GCA, GCM, GCP, GTO).
    {
        const auto &log = first.log;
        out.set(w, MetricId::GCC,
                static_cast<double>(log.cycles().size()));
        std::vector<double> post;
        for (const auto &c : log.cycles())
            post.push_back(c.post_gc_bytes);
        const double gmd_bytes = workload.gc.gmd_mb * kMb;
        if (!post.empty() && gmd_bytes > 0.0) {
            out.set(w, MetricId::GCA,
                    100.0 * metrics::mean(post) / gmd_bytes);
            out.set(w, MetricId::GCM,
                    100.0 * metrics::quantile(post, 0.5) / gmd_bytes);
        }
        if (first.wall > 0.0) {
            out.set(w, MetricId::GCP,
                    100.0 * log.stwWall() / first.wall);
        }
        if (gmd_bytes > 0.0) {
            out.set(w, MetricId::GTO,
                    first.total_allocated /
                        (static_cast<double>(base.iterations) *
                         gmd_bytes));
        }
    }

    // Counter-derived microarchitectural metrics and PKP.
    {
        const auto counters =
            counters::readCounters(first, workload, base.machine);
        out.set(w, MetricId::UIP, counters.uip());
        out.set(w, MetricId::UDC, counters.udc());
        out.set(w, MetricId::UDT, counters.udt());
        out.set(w, MetricId::ULL, counters.ull());
        out.set(w, MetricId::USF, counters.usf());
        out.set(w, MetricId::USB, counters.usb());
        out.set(w, MetricId::USC, counters.usc());
        out.set(w, MetricId::UBP, counters.ubp());
        out.set(w, MetricId::UBR, counters.ubr());
        out.set(w, MetricId::PKP, counters.pkp());
    }

    // ----- Min-heap searches (GMD + size variants). -----
    if (options.minheap_searches) {
        for (auto size : {workloads::SizeConfig::Small,
                          workloads::SizeConfig::Default,
                          workloads::SizeConfig::Large,
                          workloads::SizeConfig::VLarge}) {
            if (!workloads::sizeAvailable(workload, size))
                continue;
            ExperimentOptions probe = base;
            probe.size = size;
            const auto found =
                findMinHeapMb(workload, gc::Algorithm::G1, probe);
            const MetricId id =
                size == workloads::SizeConfig::Small ? MetricId::GMS
                : size == workloads::SizeConfig::Default
                    ? MetricId::GMD
                : size == workloads::SizeConfig::Large ? MetricId::GML
                                                       : MetricId::GMV;
            out.set(w, id, found.min_heap_mb);
            if (id == MetricId::GMD) {
                // Without compressed pointers the same search scales
                // by the workload's pointer-footprint ratio.
                out.set(w, MetricId::GMU,
                        found.min_heap_mb *
                            workload.pointerFootprint());
            }
        }
    }

    // ----- Heap-size sensitivity (GSS). -----
    {
        const auto tight = runner.run(workload, gc::Algorithm::G1,
                                      options.tight_factor);
        const auto roomy = runner.run(workload, gc::Algorithm::G1,
                                      options.roomy_factor);
        if (tight.allCompleted() && roomy.allCompleted()) {
            out.set(w, MetricId::GSS,
                    std::max(0.0, slowdownPct(meanTimedWall(tight),
                                              meanTimedWall(roomy))));
        }
    }

    // ----- Leakage (GLK): post-GC growth over 10 iterations. -----
    {
        ExperimentOptions leak_opts = base;
        leak_opts.iterations = 10;
        leak_opts.invocations = 1;
        Runner leak_runner(leak_opts);
        const auto run =
            leak_runner.run(workload, gc::Algorithm::G1, 3.0);
        if (run.allCompleted()) {
            const auto &cycles = run.runs.front().log.cycles();
            // Compare post-GC floors in the first and last iteration.
            const auto &iters = run.runs.front().iterations;
            auto floor_in = [&](double b, double e) {
                double lo = 0.0;
                bool any = false;
                for (const auto &c : cycles) {
                    if (c.end < b || c.end > e)
                        continue;
                    if (!any || c.post_gc_bytes < lo) {
                        lo = c.post_gc_bytes;
                        any = true;
                    }
                }
                return any ? lo : 0.0;
            };
            if (iters.size() >= 10) {
                const double f1 = floor_in(iters[0].wall_begin,
                                           iters[0].wall_end);
                const double f10 = floor_in(iters[9].wall_begin,
                                            iters[9].wall_end);
                if (f1 > 0.0 && f10 >= f1) {
                    out.set(w, MetricId::GLK,
                            100.0 * (f10 - f1) / f1);
                }
            }
        }
    }

    // ----- Invocation noise (PSD). -----
    {
        ExperimentOptions psd_opts = base;
        psd_opts.invocations = options.psd_invocations;
        Runner psd_runner(psd_opts);
        const auto set = psd_runner.run(workload, gc::Algorithm::G1, 2.0);
        if (set.allCompleted()) {
            const auto walls = set.timedWalls();
            const double m = metrics::mean(walls);
            if (m > 0.0) {
                out.set(w, MetricId::PSD,
                        100.0 * metrics::sampleStddev(walls) / m);
            }
        }
    }

    // ----- Warmup (PWU): iterations to within 1.5 % of best. -----
    {
        ExperimentOptions warm_opts = base;
        warm_opts.iterations = options.warmup_iterations;
        warm_opts.invocations = 1;
        Runner warm_runner(warm_opts);
        const auto set =
            warm_runner.run(workload, gc::Algorithm::G1, 2.0);
        if (set.allCompleted()) {
            const auto &iters = set.runs.front().iterations;
            double best = iters.back().wall();
            for (const auto &it : iters)
                best = std::min(best, it.wall());
            int pwu = static_cast<int>(iters.size());
            for (std::size_t i = 0; i < iters.size(); ++i) {
                if (iters[i].wall() <= best * 1.015) {
                    pwu = static_cast<int>(i) + 1;
                    break;
                }
            }
            out.set(w, MetricId::PWU, pwu);
        }
    }

    // ----- Machine-configuration sensitivities. -----
    if (options.sensitivity_experiments) {
        auto measure = [&](counters::MachineConfig machine) {
            ExperimentOptions vary = base;
            vary.machine = machine;
            vary.invocations = 1;
            Runner vary_runner(vary);
            const auto set =
                vary_runner.run(workload, gc::Algorithm::G1, 2.0);
            return set.allCompleted() ? meanTimedWall(set) : 0.0;
        };

        counters::MachineConfig m = base.machine;
        m.freq_boost = true;
        if (const double t = measure(m))
            out.set(w, MetricId::PFS,
                    std::max(0.0, -slowdownPct(t, base_wall)));

        m = base.machine;
        m.slow_memory = true;
        if (const double t = measure(m))
            out.set(w, MetricId::PMS, slowdownPct(t, base_wall));

        m = base.machine;
        m.small_llc = true;
        if (const double t = measure(m))
            out.set(w, MetricId::PLS, slowdownPct(t, base_wall));

        m = base.machine;
        m.compiler = counters::MachineConfig::Compiler::Worst;
        if (const double t = measure(m))
            out.set(w, MetricId::PCS, slowdownPct(t, base_wall));

        m = base.machine;
        m.compiler = counters::MachineConfig::Compiler::Interpreter;
        if (const double t = measure(m))
            out.set(w, MetricId::PIN, slowdownPct(t, base_wall));

        m = base.machine;
        m.arch = counters::MachineConfig::Arch::GoldenCove;
        if (const double t = measure(m))
            out.set(w, MetricId::UAI, slowdownPct(t, base_wall));

        m = base.machine;
        m.arch = counters::MachineConfig::Arch::NeoverseN1;
        if (const double t = measure(m))
            out.set(w, MetricId::UAA, slowdownPct(t, base_wall));

        // PCC: first-iteration cost of forced C2 compilation.
        {
            ExperimentOptions c2 = base;
            c2.machine.compiler =
                counters::MachineConfig::Compiler::ForcedC2;
            c2.invocations = 1;
            Runner c2_runner(c2);
            const auto forced =
                c2_runner.run(workload, gc::Algorithm::G1, 2.0);
            if (forced.allCompleted() && baseline.runs.front().usable()) {
                const double c2_first =
                    forced.runs.front().iterations.front().wall();
                const double tiered_first =
                    baseline.runs.front().iterations.front().wall();
                out.set(w, MetricId::PCC,
                        slowdownPct(c2_first, tiered_first));
            }
        }

        // PPE: parallel efficiency, from a single-CPU run.
        {
            ExperimentOptions uni = base;
            uni.machine.cpus = 1.0;
            uni.invocations = 1;
            Runner uni_runner(uni);
            const auto single =
                uni_runner.run(workload, gc::Algorithm::G1, 2.0);
            if (single.allCompleted() && base_wall > 0.0) {
                const double speedup =
                    meanTimedWall(single) / base_wall;
                out.set(w, MetricId::PPE,
                        100.0 * speedup / base.machine.cpus);
            }
        }
    }

    // ----- Shipped-only metrics (bytecode instrumentation). -----
    const auto shipped = stats::shippedStats();
    for (MetricId id : {MetricId::AOA, MetricId::AOL, MetricId::AOM,
                        MetricId::AOS, MetricId::ARA, MetricId::BAL,
                        MetricId::BAS, MetricId::BEF, MetricId::BGF,
                        MetricId::BPF, MetricId::BUB, MetricId::BUF}) {
        if (const auto v = shipped.get(w, id))
            out.set(w, id, *v);
    }
}

stats::StatTable
measureSuiteStats(const CharacterizeOptions &options)
{
    const auto &suite = workloads::suite();
    trace::TraceSink *sink = options.base.trace;

    // Characterize workloads concurrently: each gets its own result
    // table and (when tracing) its own shard, assembled in suite
    // order afterwards so output is independent of jobs.
    std::vector<stats::StatTable> tables(suite.size());
    std::vector<std::unique_ptr<trace::TraceSink>> shards(suite.size());
    const std::size_t jobs = exec::resolveJobs(options.base.jobs);
    exec::parallel_for(
        exec::Pool::shared(), suite.size(),
        [&](std::size_t i) {
            CharacterizeOptions wl_options = options;
            if (sink != nullptr) {
                shards[i] = std::make_unique<trace::TraceSink>(
                    sink->shardOptions());
                wl_options.base.trace = shards[i].get();
            }
            measureWorkloadStats(suite[i], wl_options, tables[i]);
        },
        jobs);

    stats::StatTable table;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        if (sink != nullptr)
            sink->appendCell(*shards[i], "characterize " + suite[i].name);
        table.merge(tables[i]);
    }
    return table;
}

} // namespace capo::harness
