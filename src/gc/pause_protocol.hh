/**
 * @file
 * The shared GC pause protocol.
 *
 * Every collector design ultimately drives the same safepoint
 * sequence: stop the world, pay time-to-safepoint, do the pause work,
 * close the phase window, record the cycle, resume the world, release
 * stalled mutators, and consult the phase-abort fault site. Before
 * this layer existed the sequence was hand-rolled as three
 * near-duplicate resume() state machines (stw/g1/concurrent), each
 * bouncing through World, GcEventLog and the engine per leg.
 *
 * PauseProtocol owns the sequence once. Collectors shrink to cost
 * models and trigger policy: a pause is one beginPause() call (which
 * returns the fused TTSP-sleep + pause-compute action — a single
 * engine interaction instead of the old sleep/dispatch/compute pair)
 * and one finishPause() call when the compute completes. Non-STW
 * phases (the concurrent trace leg) use beginConcurrentPhase() /
 * closeConcurrentPhase() with the same token and CPU bookkeeping.
 *
 * finishPause() also counts each pause in the hot tier's `gc.pauses`
 * as it closes (one gated relaxed load when the tier is off), so a
 * pause that ends after collector shutdown still lands in its cell.
 *
 * Semantics-neutrality: tests/gc/pause_protocol_test.cc pins the
 * GcEventLog streams produced through this layer byte-identical to the
 * pre-refactor captures, for every collector.
 */

#ifndef CAPO_GC_PAUSE_PROTOCOL_HH
#define CAPO_GC_PAUSE_PROTOCOL_HH

#include "runtime/gc_event_log.hh"
#include "sim/agent.hh"

namespace capo::gc {

class CollectorBase;

/**
 * Drives the full stop-the-world pause sequence on behalf of a
 * collector. One instance per collector, owned by CollectorBase; at
 * most one pause or concurrent phase is open at a time (G1's marker
 * overlaps controller pauses and therefore logs its concurrent window
 * directly — it never stops the world).
 */
class PauseProtocol
{
  public:
    /** Wire to a (re-)attached collector. Resets every piece of
     *  pause state for pooled reuse. */
    void attach(CollectorBase &owner);

    /**
     * Open a stop-the-world pause: batch-freeze the world, open the
     * @p kind phase window, mark the controller's CPU, and return the
     * fused action that sleeps the time-to-safepoint and then runs the
     * @p work pause compute at @p width. The caller's next resume()
     * fires when the pause work is done; it must call finishPause().
     */
    sim::Action beginPause(runtime::GcPhase kind, double work,
                           double width);

    /**
     * Close the pause opened by beginPause(): end the phase window
     * (charging CPU since the pause began), record @p cycle if
     * non-null, batch-unfreeze the world, run the collector's
     * onWorldResumed() hook (pacing must re-apply before any stalled
     * mutator retries), then — when @p release_stalled — wake the
     * stall condition and consult the GcPhaseAbort fault site.
     * Init-style pauses that merely open a cycle pass false: nobody
     * can be stalled on a cycle that is only starting, and aborts are
     * consulted at cycle-completion points only.
     */
    void finishPause(const runtime::CycleRecord *cycle = nullptr,
                     bool release_stalled = true);

    /** Open a non-STW phase window (the concurrent work leg) and
     *  return its compute action. Closed by closeConcurrentPhase(). */
    sim::Action beginConcurrentPhase(runtime::GcPhase kind, double work,
                                     double width);

    /** End the phase opened by beginConcurrentPhase(). */
    void closeConcurrentPhase();

    /** Wall-clock start of the currently/last open pause (cycle
     *  records for pause-shaped cycles begin here). */
    sim::Time pauseBegin() const { return pause_begin_; }

  private:
    CollectorBase *owner_ = nullptr;
    sim::AgentId controller_ = sim::kInvalidAgent;
    runtime::GcEventLog::PhaseToken token_ = 0;
    double cpu_mark_ = 0.0;
    sim::Time pause_begin_ = 0.0;
    bool stw_ = false;
};

} // namespace capo::gc

#endif // CAPO_GC_PAUSE_PROTOCOL_HH
