/**
 * @file
 * One benchmark execution: engine + heap + collector + mutator, wired
 * together and run to completion (a single "invocation" in DaCapo
 * terminology, containing n iterations).
 */

#ifndef CAPO_RUNTIME_EXECUTION_HH
#define CAPO_RUNTIME_EXECUTION_HH

#include <cstdint>
#include <vector>

#include "fault/fault.hh"
#include "heap/heap_space.hh"
#include "heap/live_set.hh"
#include "runtime/collector_runtime.hh"
#include "runtime/gc_event_log.hh"
#include "runtime/mutator.hh"
#include "sim/engine.hh"
#include "trace/metrics_registry.hh"
#include "trace/sink.hh"

namespace capo::runtime {

/**
 * Optional open-loop traffic attached to an execution (implemented in
 * src/load; the runtime only knows this seam). A generator registers
 * its own agents — timer-driven arrivals plus service lanes that join
 * the stoppable world — and may supply a pacing policy that overrides
 * the collector's built-in static pacer.
 *
 * Lifecycle: attach() is called once per run after the mutator is
 * registered and must fully reset internal state (harness retries
 * reuse the instance); requestShutdown() is invoked from the
 * mutator's shutdown hook and must leave every generator agent on a
 * path to exit without external wakeups.
 */
class LoadGenerator
{
  public:
    virtual ~LoadGenerator() = default;

    virtual void attach(sim::Engine &engine, World &world,
                        std::uint64_t seed) = 0;
    virtual void requestShutdown() = 0;

    /** Pacing policy to install for this run; null keeps the
     *  collector's built-in static pacing. */
    virtual const PacingPolicy *pacingPolicy() const { return nullptr; }
};

/** Parameters of one invocation. */
struct ExecutionConfig
{
    double cpus = 32.0;               ///< Hardware threads.
    double heap_bytes = 0.0;          ///< -Xmx (physical bytes).
    double survivor_fraction = 0.1;   ///< Workload transient survival.
    double survivor_reference_bytes = 0.0;  ///< Survival scaling ref.
    std::uint64_t seed = 1;           ///< Noise seed for this invocation.
    bool trace_rate = false;          ///< Record mutator rate timeline.
    double time_limit_sec = 3600.0;   ///< Simulated-time safety cap.

    /** @{ Observability (all optional; null/zero disables). The sink
     *  receives engine scheduling spans, mutator phases, GC phases and
     *  trigger decisions, and — when @c metrics_interval_ns > 0 —
     *  periodic counter samples, which it also keeps as histogram
     *  samples (TraceSink::sample). @c metrics counts injected
     *  faults. With sampling enabled the run's wall clock may trail
     *  the last mutator exit by up to one interval. */
    trace::TraceSink *trace = nullptr;
    trace::MetricsRegistry *metrics = nullptr;
    double metrics_interval_ns = 0.0;
    /** @} */

    /** @{ Deterministic fault injection (see fault/fault.hh). When
     *  @c faults is non-null and enabled, an injector seeded from the
     *  plan seed, this invocation's @c seed and @c fault_attempt is
     *  wired into the engine (timer perturbation), the mutator
     *  (alloc OOM/stall sites) and the collector (phase aborts).
     *  @c fault_attempt salts the stream so harness-level retries of
     *  the same cell see an independent fault schedule. */
    const fault::FaultPlan *faults = nullptr;
    int fault_attempt = 0;
    /** @} */

    /** Optional open-loop traffic generator; null runs the classic
     *  closed-loop mutator alone. Must outlive the run. */
    LoadGenerator *load = nullptr;
};

/** Everything measured during one invocation. */
struct ExecutionResult
{
    bool completed = false;  ///< All iterations ran and exited cleanly.
    bool oom = false;        ///< Collector declared out-of-memory.
    bool timed_out = false;  ///< Hit the simulated-time safety cap.

    std::vector<IterationRecord> iterations;

    double wall = 0.0;         ///< Whole-invocation wall time (ns).
    double cpu = 0.0;          ///< Whole-invocation task clock (cpu-ns).
    double mutator_cpu = 0.0;  ///< Task clock consumed by mutators.
    double gc_cpu = 0.0;       ///< Task clock consumed by the collector.

    GcEventLog log;
    std::vector<sim::RateSegment> rate_timeline;
    double baseline_rate = 1.0;  ///< Per-width rate with an idle machine.

    double total_allocated = 0.0;
    std::uint64_t collections = 0;
    std::size_t stall_count = 0;
    std::uint64_t dispatches = 0;  ///< Engine events processed.

    /** Faults injected into this invocation (in firing order). */
    std::vector<fault::InjectedFault> faults;

    /** Execution attempts consumed (harness retries; 1 = first try
     *  sufficed). Set by the harness, not by runExecution. */
    int attempts = 1;

    /** Measurements over the timed (last completed) iteration. */
    struct TimedSlice {
        double wall = 0.0;
        double cpu = 0.0;
        double stw_wall = 0.0;  ///< JVMTI-attributable pause wall time.
        double stw_cpu = 0.0;   ///< GC CPU inside pause windows.
    };
    TimedSlice timed;

    /** Convenience: did the run produce a usable timed iteration? */
    bool usable() const { return completed && !iterations.empty(); }
};

/**
 * Run one invocation of a benchmark under the given collector.
 *
 * @param config Machine/heap/run parameters.
 * @param plan The mutator's execution plan (work, allocation, warmup).
 *             The collector's barrier factor is applied internally.
 * @param live Live-set model for the workload at this size.
 * @param collector Collector instance; attached to this execution.
 */
ExecutionResult runExecution(const ExecutionConfig &config,
                             const MutatorPlan &plan,
                             const heap::LiveSetModel &live,
                             CollectorRuntime &collector);

} // namespace capo::runtime

#endif // CAPO_RUNTIME_EXECUTION_HH
