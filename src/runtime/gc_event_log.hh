/**
 * @file
 * Collector telemetry: the simulation's stand-in for JVMTI callbacks.
 *
 * The lower-bound-overhead methodology (Cai et al., reproduced here)
 * only attributes to the collector what a JVMTI agent can observe:
 * stop-the-world windows. GcEventLog records exactly that boundary
 * (pauses, with the CPU consumed inside them) plus per-cycle telemetry
 * (reclaimed bytes, post-GC heap size) equivalent to parsing a GC log.
 */

#ifndef CAPO_RUNTIME_GC_EVENT_LOG_HH
#define CAPO_RUNTIME_GC_EVENT_LOG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hh"
#include "trace/sink.hh"

namespace capo::runtime {

/** The kind of collector activity a record describes. */
enum class GcPhase {
    YoungPause,   ///< STW nursery collection.
    FullPause,    ///< STW full-heap collection.
    MixedPause,   ///< STW mixed collection (G1).
    InitPause,    ///< Short STW cycle-start pause (concurrent GCs).
    FinalPause,   ///< Short STW cycle-end pause (concurrent GCs).
    Concurrent,   ///< Concurrent collection work (not a pause).
};

/** True if @p phase stops the world. */
bool isStwPhase(GcPhase phase);

/** Printable name of a phase. */
const char *phaseName(GcPhase phase);

/** One stop-the-world window (or concurrent phase) as JVMTI sees it. */
struct PauseRecord
{
    sim::Time begin = 0.0;
    sim::Time end = 0.0;
    double cpu = 0.0;  ///< CPU-ns the collector burned in this window.
    GcPhase phase = GcPhase::FullPause;
    bool open = false;  ///< Window began but has not ended yet.

    sim::Time duration() const { return end - begin; }
};

/** One completed collection cycle (GC-log equivalent). */
struct CycleRecord
{
    sim::Time begin = 0.0;
    sim::Time end = 0.0;
    GcPhase kind = GcPhase::FullPause;
    double traced = 0.0;
    double reclaimed = 0.0;
    double post_gc_bytes = 0.0;
};

/**
 * Accumulates collector events over one execution.
 */
class GcEventLog
{
  public:
    /** Identifies an open phase window (phases may overlap, e.g.\ G1
     *  young pauses inside concurrent marking). */
    using PhaseToken = std::size_t;

    /**
     * Forward phase windows into a trace sink as they are recorded:
     * STW phases become spans on @p pause_track, concurrent phases on
     * @p concurrent_track (separate tracks because G1 young pauses
     * nest inside concurrent marking). Null @p sink detaches.
     */
    void attachTrace(trace::TraceSink *sink, trace::TrackId pause_track,
                     trace::TrackId concurrent_track);

    /**
     * Emit a collector-decision instant (e.g.\ "trigger-young") with
     * its input @p value on the pause track. No-op when detached, so
     * collectors can call it unconditionally.
     */
    void traceInstant(const char *name, sim::Time t, double value = 0.0);

    /** Begin a pause/phase window at @p t. */
    PhaseToken beginPhase(sim::Time t, GcPhase phase);

    /**
     * Close the window identified by @p token.
     * @param cpu CPU-ns the collector consumed inside the window.
     */
    void endPhase(PhaseToken token, sim::Time t, double cpu);

    /** Record a completed collection cycle. */
    void recordCycle(const CycleRecord &cycle);

    /** Record an allocation-stall episode (mutator blocked). */
    void recordStall(sim::Time begin, sim::Time end);

    /** @{ Queries. */
    const std::vector<PauseRecord> &phases() const { return phases_; }
    const std::vector<CycleRecord> &cycles() const { return cycles_; }

    /** STW wall time in [from, to) (whole log by default). */
    double stwWall(sim::Time from = 0.0, sim::Time to = -1.0) const;

    /** CPU consumed by the collector inside STW windows in [from, to). */
    double stwCpu(sim::Time from = 0.0, sim::Time to = -1.0) const;

    /** All CPU the log attributes to the collector (incl. concurrent). */
    double totalGcCpu() const;

    /** Longest single STW window. */
    double maxPause() const;

    /** Number of STW pauses. */
    std::size_t pauseCount() const;

    /** STW intervals (begin, end), for MMU and latency overlays. */
    std::vector<std::pair<sim::Time, sim::Time>> stwIntervals() const;

    /** Total wall time mutators spent in allocation stalls. */
    double stallWall() const { return stall_wall_; }
    std::size_t stallCount() const { return stall_count_; }
    /** @} */

  private:
    /** Track a phase span is emitted on (pause vs.\ concurrent). */
    trace::TrackId trackFor(GcPhase phase) const;

    std::vector<PauseRecord> phases_;
    std::vector<CycleRecord> cycles_;
    double stall_wall_ = 0.0;
    std::size_t stall_count_ = 0;

    trace::TraceSink *sink_ = nullptr;
    trace::TrackId pause_track_ = 0;
    trace::TrackId concurrent_track_ = 0;
};

} // namespace capo::runtime

#endif // CAPO_RUNTIME_GC_EVENT_LOG_HH
