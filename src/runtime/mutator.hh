/**
 * @file
 * The mutator: the simulated application side of a benchmark run.
 *
 * A MutatorGroup models all application threads of one workload as a
 * single agent with fractional parallelism (width). It executes the
 * DaCapo iteration protocol: n iterations of (allocate, compute) chunk
 * loops, with a JIT-warmup multiplier on early iterations and optional
 * per-iteration noise. Allocation goes through the collector, which
 * may stall the mutator (pacing, allocation stalls) or fail the run
 * (heap below this collector's minimum).
 */

#ifndef CAPO_RUNTIME_MUTATOR_HH
#define CAPO_RUNTIME_MUTATOR_HH

#include <functional>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "heap/heap_space.hh"
#include "runtime/allocator.hh"
#include "runtime/gc_event_log.hh"
#include "runtime/world.hh"
#include "sim/agent.hh"
#include "support/rng.hh"

namespace capo::runtime {

/**
 * Everything the mutator needs to know to execute one benchmark.
 *
 * Work quantities are CPU-nanoseconds summed over application threads
 * and already include machine-configuration and collector-barrier
 * multipliers (the runtime cannot distinguish those costs — which is
 * precisely why LBO is a lower bound).
 */
struct MutatorPlan
{
    int iterations = 5;
    double work_per_iteration = 0.0;   ///< CPU-ns, warmed-up iteration.
    double alloc_per_iteration = 0.0;  ///< Bytes allocated per iteration.
    double width = 1.0;                ///< Effective parallelism.

    /**
     * Per-iteration work multipliers modelling JIT warmup; the last
     * entry repeats for subsequent iterations. Empty means always 1.
     */
    std::vector<double> warmup_multipliers;

    /** Std-dev of the multiplicative per-iteration noise. */
    double noise_stddev = 0.0;

    /** @{ Bounds on the number of allocate/compute chunks per
     *  iteration (granularity of GC interaction). */
    int min_chunks = 64;
    int max_chunks = 20000;
    /** @} */
};

/** Timing record for one benchmark iteration. */
struct IterationRecord
{
    sim::Time wall_begin = 0.0;
    sim::Time wall_end = 0.0;
    double cpu_begin = 0.0;  ///< Process task clock at start.
    double cpu_end = 0.0;

    double wall() const { return wall_end - wall_begin; }
    double cpu() const { return cpu_end - cpu_begin; }
};

/**
 * Agent executing the application side of a benchmark run.
 */
class MutatorGroup : public sim::Agent
{
  public:
    /**
     * @param plan What to execute.
     * @param allocator The collector's allocation interface.
     * @param heap Shared heap (for progress updates and chunk sizing).
     * @param log Event log (allocation stalls are recorded here, and
     *            the last iteration opens and closes its timed window).
     * @param rng Private random stream for noise.
     */
    MutatorGroup(const MutatorPlan &plan, Allocator &allocator,
                 heap::HeapSpace &heap, GcEventLog &log, support::Rng rng);

    /** Register with the engine and the stoppable world. */
    void attach(sim::Engine &engine, World &world);

    /** Invoked once when the run finishes or aborts (before exit). */
    void setShutdownHook(std::function<void()> hook);

    /**
     * Emit mutator phases on @p track of @p sink: one "iteration" span
     * per benchmark iteration and an "alloc-stall" span for each
     * blocked-allocation episode. Null detaches.
     */
    void attachTrace(trace::TraceSink *sink, trace::TrackId track);

    /**
     * Consult @p injector at allocation grants: the AllocOom site
     * converts a granted allocation into a simulated OOM kill, the
     * AllocStall site makes the grant pay a stall-overrun sleep. Null
     * detaches; the injector must outlive the run.
     */
    void setFaultInjector(fault::FaultInjector *injector);

    std::string_view name() const override { return "mutator"; }
    sim::Action resume(sim::Engine &engine) override;

    /** @{ Results. */
    const std::vector<IterationRecord> &iterations() const
    {
        return iterations_;
    }
    bool failedOom() const { return oom_; }
    bool done() const { return done_; }
    std::size_t stallCount() const { return stalls_; }
    /** @} */

    sim::AgentId agentId() const { return id_; }

  private:
    /** Set up per-iteration chunking and warmup state. */
    void beginIteration(sim::Engine &engine);

    /** Close the current iteration's record. */
    void endIteration(sim::Engine &engine);

    /** Work for the next chunk, with warmup and noise applied. */
    double chunkWork() const;

    MutatorPlan plan_;
    Allocator &allocator_;
    heap::HeapSpace &heap_;
    GcEventLog &log_;
    support::Rng rng_;

    sim::AgentId id_ = sim::kInvalidAgent;
    std::function<void()> shutdown_hook_;

    enum class Phase { Start, Allocate, FaultStall, Computed, Done };
    Phase phase_ = Phase::Start;
    int iteration_ = 0;
    int chunk_ = 0;
    int chunks_this_iteration_ = 1;
    double chunk_alloc_ = 0.0;
    double iteration_multiplier_ = 1.0;
    sim::Time stall_begin_ = -1.0;
    std::size_t stalls_ = 0;
    bool oom_ = false;
    bool done_ = false;

    fault::FaultInjector *fault_ = nullptr;
    sim::Time fault_stall_until_ = 0.0;

    trace::TraceSink *sink_ = nullptr;
    trace::TrackId track_ = 0;

    std::vector<IterationRecord> iterations_;
};

} // namespace capo::runtime

#endif // CAPO_RUNTIME_MUTATOR_HH
