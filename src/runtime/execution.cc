#include "runtime/execution.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "runtime/worker_context.hh"
#include "support/logging.hh"
#include "trace/sampler.hh"

namespace capo::runtime {

ExecutionResult
runExecution(const ExecutionConfig &config, const MutatorPlan &plan,
             const heap::LiveSetModel &live, CollectorRuntime &collector)
{
    CAPO_ASSERT(config.heap_bytes > 0.0 && std::isfinite(config.heap_bytes),
                "execution needs a finite heap size");

    // Per-worker reuse: the arena backs the engine's containers (reset
    // per run) and the pooled world keeps its capacity. See
    // worker_context.hh for why the reset is safe exactly here.
    WorkerContext &scratch = WorkerContext::instance();
    CAPO_ASSERT(!scratch.inUse(),
                "runExecution re-entered on one thread");
    struct InUseGuard
    {
        WorkerContext &ctx;
        ~InUseGuard() { ctx.setInUse(false); }
    } in_use_guard{scratch};
    scratch.setInUse(true);
    scratch.arena().reset();

    sim::Engine engine(config.cpus, &scratch.arena());

    heap::HeapSpace::Config heap_config;
    heap_config.max_bytes = config.heap_bytes;
    heap_config.footprint_factor = collector.footprintFactor();
    heap_config.survivor_fraction = config.survivor_fraction;
    heap_config.survivor_reference_bytes =
        config.survivor_reference_bytes;
    heap::HeapSpace heap(heap_config, live);

    GcEventLog log;
    World &world = scratch.world();
    world.rebind(engine);

    // Fault injection: one injector per invocation, seeded from the
    // fault-plan seed, the invocation seed and the retry attempt, so
    // fault schedules are a pure function of cell coordinates (and
    // retries see independent schedules).
    std::unique_ptr<fault::FaultInjector> injector;
    if (config.faults != nullptr && config.faults->enabled()) {
        injector = std::make_unique<fault::FaultInjector>(
            *config.faults, config.seed, config.fault_attempt);
        engine.setFaultInjector(injector.get());
        if (config.metrics != nullptr)
            injector->attachMetrics(config.metrics);
    }

    CollectorContext context;
    context.engine = &engine;
    context.heap = &heap;
    context.log = &log;
    context.world = &world;
    context.fault = injector.get();
    if (config.load != nullptr)
        context.pacing = config.load->pacingPolicy();
    collector.attach(context);

    // Bake the collector's barrier tax into the mutator's work: the
    // runtime cannot attribute it, which is what keeps LBO conservative.
    MutatorPlan taxed_plan = plan;
    taxed_plan.work_per_iteration *= collector.barrierFactor();

    MutatorGroup mutator(taxed_plan, collector, heap, log,
                         support::Rng(config.seed));
    mutator.attach(engine, world);
    if (injector)
        mutator.setFaultInjector(injector.get());

    // Open-loop traffic joins after the mutator so agent registration
    // order (and thus the event stream) is stable across runs.
    if (config.load != nullptr)
        config.load->attach(engine, world, config.seed);

    // Observability wiring: scheduling spans from the engine, phase
    // spans from the event log and mutator, pacing from the world,
    // and (optionally) a periodic metrics sampler agent.
    std::unique_ptr<trace::MetricsSampler> sampler;
    if (config.trace != nullptr) {
        trace::TraceSink &sink = *config.trace;
        engine.setTraceSink(&sink);
        log.attachTrace(&sink, sink.registerTrack("gc"),
                        sink.registerTrack("gc/concurrent"));
        world.attachTrace(&sink, sink.registerTrack("pacing"));
        mutator.attachTrace(&sink, sink.registerTrack("mutator"));
        if (injector)
            injector->attachTrace(&sink, sink.registerTrack("fault"));

        if (config.metrics_interval_ns > 0.0) {
            sampler = std::make_unique<trace::MetricsSampler>(
                sink, config.metrics_interval_ns);
            sampler->addProbe("heap.occupied_bytes",
                              [&heap] { return heap.occupied(); });
            sampler->addProbe("heap.live_bytes",
                              [&heap] { return heap.live(); });
            sampler->addProbe("heap.fresh_bytes",
                              [&heap] { return heap.fresh(); });
            sampler->addProbe("agents.runnable", [&engine] {
                return static_cast<double>(engine.runnableAgents());
            });
            const auto mutator_id = mutator.agentId();
            sampler->addProbe("gc.cpu_ns", [&engine, mutator_id] {
                return engine.totalCpuTime() - engine.cpuTime(mutator_id);
            });
            sampler->attach(engine);
        }
    }

    mutator.setShutdownHook([&collector, &sampler, &config] {
        collector.shutdown();
        if (config.load != nullptr)
            config.load->requestShutdown();
        if (sampler)
            sampler->requestStop();
    });

    if (config.trace_rate)
        engine.tracePerWidthRate(mutator.agentId());

    const auto reason =
        engine.run(sim::fromSeconds(config.time_limit_sec));

    ExecutionResult result;
    result.oom = mutator.failedOom();
    result.timed_out = reason == sim::Engine::StopReason::TimeLimit;
    if (reason == sim::Engine::StopReason::Stalled) {
        support::warn("execution stalled (", collector.name(),
                      "): treating as failed run");
    }
    result.completed = mutator.done() &&
                       reason == sim::Engine::StopReason::AllExited;

    result.iterations = mutator.iterations();
    result.wall = engine.now();
    result.cpu = engine.totalCpuTime();
    result.mutator_cpu = engine.cpuTime(mutator.agentId());
    result.gc_cpu = result.cpu - result.mutator_cpu;
    result.rate_timeline.assign(engine.rateTimeline().begin(),
                                engine.rateTimeline().end());
    result.baseline_rate = std::min(1.0, config.cpus / taxed_plan.width);
    result.total_allocated = heap.totalAllocated();
    result.collections = heap.collections();
    result.stall_count = mutator.stallCount();
    result.dispatches = engine.dispatchCount();
    if (injector)
        result.faults = injector->injected();

    if (result.completed && !result.iterations.empty()) {
        const auto &timed = result.iterations.back();
        result.timed.wall = timed.wall();
        result.timed.cpu = timed.cpu();
        result.timed.stw_wall = log.stwWall(timed.wall_begin,
                                            timed.wall_end);
        result.timed.stw_cpu = log.stwCpu(timed.wall_begin,
                                          timed.wall_end);
    }

    result.log = std::move(log);
    return result;
}

} // namespace capo::runtime
