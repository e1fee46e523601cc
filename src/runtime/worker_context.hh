/**
 * @file
 * Per-worker reusable execution state (the cell arena and pools).
 *
 * A sweep worker runs many invocations back-to-back; each used to
 * reconstruct the same transient objects from the global heap. The
 * WorkerContext keeps one CellArena (backing the engine's containers)
 * and one pooled World, thread_local so no locking is involved.
 * runExecution() resets the arena and rebinds the world at entry;
 * everything observable about a run is therefore identical to fresh
 * construction — the determinism tests assert exactly that
 * (dirty-reuse trap).
 *
 * Lifetime argument for the arena reset: an engine only lives inside
 * one runExecution() call, runExecution() never re-enters on the same
 * thread (the simulation spawns no pool tasks), so at entry no arena
 * memory is live on this thread.
 */

#ifndef CAPO_RUNTIME_WORKER_CONTEXT_HH
#define CAPO_RUNTIME_WORKER_CONTEXT_HH

#include "runtime/world.hh"
#include "support/arena.hh"

namespace capo::runtime {

class WorkerContext
{
  public:
    /** This thread's context (created on first use). */
    static WorkerContext &instance();

    support::CellArena &arena() { return arena_; }
    World &world() { return world_; }

    /** @{ Reentrancy guard: trips if a second execution ever starts
     *  on this thread while one is live (would invalidate the arena). */
    bool inUse() const { return in_use_; }
    void setInUse(bool v) { in_use_ = v; }
    /** @} */

    /**
     * Test hook: drop pooled state so the next run constructs
     * everything fresh (the baseline the dirty-reuse tests compare
     * reused runs against).
     */
    static void resetForTest();

  private:
    WorkerContext() = default;

    support::CellArena arena_;
    World world_;
    bool in_use_ = false;
};

} // namespace capo::runtime

#endif // CAPO_RUNTIME_WORKER_CONTEXT_HH
