/**
 * @file
 * The discrete-event simulation engine.
 *
 * The engine advances simulated time between *events* (compute
 * completions, timer expiries, condition wakes). Between events it uses
 * a fluid processor-sharing model: all runnable agents share the
 * machine's CPU capacity in proportion to their parallelism demand
 * (width × speed factor), capped at full speed. This yields, in closed
 * form, both the wall-clock behaviour (contention stretches work) and
 * the task-clock behaviour (CPU time is credited exactly for work
 * performed), which are the two measurement axes of the paper's LBO
 * methodology.
 *
 * Safepoint support: agents can be frozen (a stop-the-world pause seen
 * from the runtime layer). A frozen agent makes no progress and accrues
 * no CPU time; wake-ups that arrive while frozen are delivered when the
 * agent is unfrozen.
 */

#ifndef CAPO_SIM_ENGINE_HH
#define CAPO_SIM_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "sim/agent.hh"
#include "sim/dheap.hh"
#include "sim/time.hh"
#include "support/arena.hh"
#include "support/fifo.hh"
#include "trace/sink.hh"

namespace capo::sim {

/**
 * One contiguous interval of an agent's per-width progress rate.
 *
 * Used by the runtime to reconstruct a mutator-progress timeline for
 * request-latency synthesis: rate is CPU-ns of progress per wall-ns per
 * unit of width (0 while frozen, stalled or blocked; 1 at full speed).
 */
struct RateSegment
{
    Time begin = 0.0;
    Time end = 0.0;
    double rate = 0.0;
};

/**
 * Discrete-event fluid processor-sharing engine.
 */
class Engine
{
  public:
    /** Why run() returned. */
    enum class StopReason { AllExited, TimeLimit, Stalled };

    /**
     * @param cpus Hardware parallelism (fractional values allowed).
     * @param arena Optional bump allocator backing the engine's
     *        transient containers (timer heap, pending queue,
     *        computing set, rate segments). Null (the default) uses
     *        the global heap. The arena must outlive the engine and
     *        must not be reset() while the engine is alive.
     */
    explicit Engine(double cpus, support::CellArena *arena = nullptr);

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Register an agent. The engine does not take ownership; the agent
     * must outlive the engine. Must be called before run().
     */
    AgentId addAgent(Agent *agent);

    /** Create a condition variable. */
    CondId makeCondition(std::string name);

    /** Wake every agent waiting on @p cond. Callable from resume(). */
    void notifyAll(CondId cond);

    /** Wake the longest-waiting agent on @p cond (if any). */
    void notifyOne(CondId cond);

    /**
     * Freeze an agent (stop-the-world). In-flight compute is suspended
     * with its remaining work intact; pending wake-ups are deferred.
     * Freezing is idempotent.
     */
    void freeze(AgentId id);

    /** Undo freeze(); delivers any deferred wake-up. */
    void unfreeze(AgentId id);

    /**
     * Freeze a batch of agents in id order — the stop-the-world entry
     * point. One engine call per world stop instead of per mutator;
     * the rate-model invalidation and trace bookkeeping are shared
     * across the batch. Equivalent to freeze() per id.
     */
    void freezeAll(const AgentId *ids, std::size_t count);

    /** Undo freezeAll(); delivers deferred wake-ups and starts any
     *  staged fused computes (see Action::sleepThenCompute). */
    void unfreezeAll(const AgentId *ids, std::size_t count);

    /**
     * Scale an agent's execution speed (used for allocation pacing).
     * The agent's CPU demand and progress scale by @p factor in [0, 1].
     */
    void setSpeedFactor(AgentId id, double factor);

    /**
     * Record the agent's per-width progress-rate timeline (at most one
     * agent per engine may be traced). @see RateSegment.
     */
    void tracePerWidthRate(AgentId id);

    /**
     * Emit scheduling events (per-agent run/wait/sleep spans, freeze
     * and unfreeze instants) into @p sink. One track is registered per
     * agent when run() starts. Must be called before run(); the sink
     * must outlive the engine. Null disables (the default): every
     * trace point then costs a single pointer test.
     */
    void setTraceSink(trace::TraceSink *sink);

    /**
     * Install a fault injector (see fault/fault.hh): timer due times
     * are perturbed at the TimerPerturb site. Null disables (the
     * default); the injector must outlive the run.
     */
    void setFaultInjector(fault::FaultInjector *injector)
    {
        fault_ = injector;
    }

    /**
     * Run the simulation.
     *
     * @param until Optional absolute time limit.
     * @return Why the run ended. Stalled means no agent can ever run
     *         again although some have not exited (runtime deadlock);
     *         callers treat this as a failed experiment.
     */
    StopReason run(Time until = -1.0);

    /** @{ Introspection. */
    Time now() const { return now_; }
    double cpus() const { return cpus_; }
    std::size_t agentCount() const { return agents_.size(); }
    bool finished(AgentId id) const;
    bool frozen(AgentId id) const;

    /** Agents that could use CPU right now (computing or queued for
     *  dispatch, not frozen); a metrics-sampler probe. */
    std::size_t runnableAgents() const;

    /** CPU-ns consumed by one agent so far (its task-clock share). */
    double cpuTime(AgentId id) const;

    /** Total CPU-ns across all agents (the process task clock). */
    double totalCpuTime() const;

    /** Wall-ns during which at least one agent was frozen. */
    double frozenWallTime() const { return frozen_wall_; }

    /** Arena-aware container aliases (null arena = global heap). */
    template <typename T>
    using ArenaVec = std::vector<T, support::ArenaAllocator<T>>;

    /** The traced agent's rate timeline (coalesced). */
    const ArenaVec<RateSegment> &rateTimeline() const;

    /** Number of events dispatched (for efficiency tests). */
    std::uint64_t dispatchCount() const { return dispatches_; }
    /** @} */

    /** The agent currently being dispatched (kInvalidAgent outside). */
    AgentId currentAgent() const { return current_; }

  private:
    enum class State : std::uint8_t {
        Created,    ///< Added, not yet started.
        Pending,    ///< Queued for dispatch (resume()).
        Computing,  ///< Executing a Compute action.
        Sleeping,   ///< Waiting for a timer.
        Waiting,    ///< Blocked on a condition.
        Finished,   ///< Exited.
    };

    /** What span (if any) is currently open on an agent's trace
     *  track. ComputeEndPending defers the end of a finished compute
     *  span so back-to-back computes at the same timestamp coalesce
     *  into one span instead of flooding the buffer per chunk. */
    enum class OpenSpan : std::uint8_t {
        None,
        Compute,
        ComputeEndPending,
        ComputeFrozen,  ///< Run span split around a freeze window.
        Wait,
        Sleep,
    };

    struct AgentSlot {
        Agent *agent = nullptr;
        State state = State::Created;
        bool frozen = false;
        bool deferred_wake = false;  ///< Wake arrived while frozen.
        double remaining = 0.0;      ///< Compute: CPU-ns left, valid
                                     ///< as of credit_mark.
        double width = 1.0;
        double speed = 1.0;
        double cpu_time = 0.0;       ///< Credited up to credit_mark.
        double rate = 0.0;           ///< CPU-ns per wall-ns in effect
                                     ///< since credit_mark.
        Time credit_mark = 0.0;      ///< Last settle time.
        std::uint64_t sleep_token = 0;  ///< Matches the live timer.
        /** @{ Fused sleepThenCompute: the compute staged to start when
         *  the sleep timer fires (staged = false for a plain sleep). */
        double staged_work = 0.0;
        double staged_width = 1.0;
        bool staged = false;
        /** @} */
        trace::TrackId track = 0;
        OpenSpan open = OpenSpan::None;
    };

    struct Timer {
        Time due;
        std::uint64_t seq;  ///< FIFO tie-break for equal due times.
        AgentId agent;
        std::uint64_t token;

        bool
        operator>(const Timer &other) const
        {
            if (due != other.due)
                return due > other.due;
            return seq > other.seq;
        }
    };

    struct Cond {
        std::string name;
        support::FifoQueue<AgentId> waiters;
    };

    enum class AdvanceResult { Progress, Stalled, HitLimit };

    /** Demand an agent currently places on the CPUs. */
    double demand(const AgentSlot &slot) const;

    /** Deliver resume() to everything in the pending queue. */
    void drainPending();

    /** Apply the action an agent returned from resume(). */
    void apply(AgentId id, const Action &action);

    /** Queue an agent for dispatch (handles frozen deferral). */
    void wake(AgentId id);

    /** Arm @p slot's sleep timer for @p until (staged bulk insert,
     *  fault jitter, the hot tier's timer-op count). */
    void stageSleep(AgentSlot &slot, AgentId id, Time until);

    /**
     * A fused sleepThenCompute timer fired: move the agent straight
     * into Computing (or defer to unfreeze while frozen) without a
     * resume() dispatch.
     */
    void startStagedCompute(AgentId id);

    /** Advance the fluid model to the next event. */
    AdvanceResult advance(Time limit);

    /** Credit @p slot's work and CPU time up to now_ at slot.rate. */
    void settle(AgentSlot &slot);

    /**
     * Recompute the fluid shares after a demand transition: settle
     * every computing agent at its old rate, then rebuild the demand
     * sum, per-agent rates and the cached earliest completion time in
     * one id-ascending pass (the accumulation order determinism
     * depends on). Called lazily from advance(), so a burst of
     * transitions at one timestamp costs a single rebuild.
     */
    void rebuildRates();

    /** CPU time including un-settled accrual at the current rate. */
    double accruedCpu(const AgentSlot &slot) const;

    /** @{ Trace emission (no-ops when no sink is installed). */
    void traceOpen(AgentSlot &slot, OpenSpan kind, const char *name);
    void traceClose(AgentSlot &slot, const char *name);
    void flushComputeEnd(AgentSlot &slot);
    void closeOpenSpans();
    /** @} */

    double cpus_;
    Time now_ = 0.0;
    ArenaVec<AgentSlot> agents_;
    ArenaVec<Cond> conds_;
    QuadHeap<Timer, support::ArenaAllocator<Timer>> timers_;
    /** Timers staged during a dispatch drain, bulk-inserted into the
     *  heap once per drain (see QuadHeap::pushBulk). */
    ArenaVec<Timer> timer_staging_;
    support::FifoQueue<AgentId, support::ArenaAllocator<AgentId>>
        pending_;

    /** Agents currently in State::Computing (frozen or not), kept
     *  id-sorted (sorted insertion on join) so the fluid model's
     *  floating-point sums accumulate in the same order a full
     *  id-ascending scan would — rebuildRates() then touches only the
     *  computing set instead of every agent. */
    ArenaVec<AgentId> computing_;

    /** @{ Incremental fluid-model state, maintained by rebuildRates()
     *  and invalidated (rates_dirty_) on any demand transition:
     *  compute join/leave, freeze/unfreeze of a computing agent, or
     *  an effective speed change. While clean, per-agent rates and
     *  the earliest completion time are invariant, so timer-only
     *  events cost O(1) instead of O(runnable). */
    bool rates_dirty_ = true;
    double share_ = 1.0;
    Time next_completion_ = 0.0;
    double traced_rate_ = 0.0;
    /** @} */

    /** Frozen, not-finished agents (frozen_wall_ accounting). */
    std::size_t frozen_live_ = 0;

    std::size_t live_agents_ = 0;
    std::uint64_t timer_seq_ = 0;
    std::uint64_t dispatches_ = 0;
    AgentId current_ = kInvalidAgent;
    bool running_ = false;

    AgentId traced_ = kInvalidAgent;
    ArenaVec<RateSegment> trace_;
    double frozen_wall_ = 0.0;
    trace::TraceSink *sink_ = nullptr;
    fault::FaultInjector *fault_ = nullptr;
};

} // namespace capo::sim

#endif // CAPO_SIM_ENGINE_HH
