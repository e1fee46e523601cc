#include "runtime/gc_event_log.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "support/logging.hh"

namespace capo::runtime {

bool
isStwPhase(GcPhase phase)
{
    return phase != GcPhase::Concurrent;
}

const char *
phaseName(GcPhase phase)
{
    switch (phase) {
      case GcPhase::YoungPause:
        return "young";
      case GcPhase::FullPause:
        return "full";
      case GcPhase::MixedPause:
        return "mixed";
      case GcPhase::InitPause:
        return "init-mark";
      case GcPhase::FinalPause:
        return "final-mark";
      case GcPhase::Concurrent:
        return "concurrent";
    }
    return "?";
}

void
GcEventLog::attachTrace(trace::TraceSink *sink,
                        trace::TrackId pause_track,
                        trace::TrackId concurrent_track)
{
    sink_ = sink;
    pause_track_ = pause_track;
    concurrent_track_ = concurrent_track;
}

void
GcEventLog::traceInstant(const char *name, sim::Time t, double value)
{
    if (sink_)
        sink_->instant(pause_track_, trace::Category::Gc, name, t, value);
}

trace::TrackId
GcEventLog::trackFor(GcPhase phase) const
{
    return isStwPhase(phase) ? pause_track_ : concurrent_track_;
}

GcEventLog::PhaseToken
GcEventLog::beginPhase(sim::Time t, GcPhase phase)
{
    phases_.push_back(PauseRecord{t, t, 0.0, phase, true});
    if (sink_) {
        sink_->beginSpan(trackFor(phase), trace::Category::Gc,
                         phaseName(phase), t);
    }
    return phases_.size() - 1;
}

void
GcEventLog::endPhase(PhaseToken token, sim::Time t, double cpu)
{
    CAPO_ASSERT(token < phases_.size(), "bad phase token");
    auto &rec = phases_[token];
    CAPO_ASSERT(rec.open, "phase already closed");
    CAPO_ASSERT(t >= rec.begin, "phase ends before it begins");
    rec.end = t;
    rec.cpu = cpu;
    rec.open = false;
    if (sink_) {
        sink_->endSpan(trackFor(rec.phase), trace::Category::Gc,
                       phaseName(rec.phase), t);
    }
    // The terms stwWall/stwCpu add for a pause wholly inside
    // [from, to): the overlap is end - begin and the CPU fraction 1.
    if (timed_open_ && isStwPhase(rec.phase)) {
        const double window = rec.duration();
        timed_stw_wall_ += window;
        if (window > 0.0)
            timed_stw_cpu_ += cpu;
    }
    if (!keep_records_) {
        // Tokens index phases_, so only the closed tail can go.
        while (!phases_.empty() && !phases_.back().open)
            phases_.pop_back();
    }
}

void
GcEventLog::recordCycle(const CycleRecord &cycle)
{
    if (keep_records_)
        cycles_.push_back(cycle);
}

void
GcEventLog::recordStall(sim::Time begin, sim::Time end)
{
    CAPO_ASSERT(end >= begin, "stall ends before it begins");
    stall_wall_ += end - begin;
    ++stall_count_;
}

bool
GcEventLog::stwPhaseOpen() const
{
    return std::any_of(phases_.begin(), phases_.end(),
                       [](const PauseRecord &p) {
                           return p.open && isStwPhase(p.phase);
                       });
}

void
GcEventLog::openTimedWindow()
{
    CAPO_ASSERT(!timed_open_, "timed window already open");
    CAPO_ASSERT(!stwPhaseOpen(), "timed window opens inside a pause");
    timed_open_ = true;
}

void
GcEventLog::closeTimedWindow()
{
    CAPO_ASSERT(timed_open_, "timed window not open");
    CAPO_ASSERT(!stwPhaseOpen(), "timed window closes inside a pause");
    timed_open_ = false;
}

void
GcEventLog::requireRecords(const char *query) const
{
    if (!keep_records_) {
        throw std::logic_error(
            std::string("GcEventLog::") + query +
            ": this log kept no records; set keep_gc_log "
            "(ExperimentOptions or ExecutionConfig) to keep them");
    }
}

const std::vector<PauseRecord> &
GcEventLog::phases() const
{
    requireRecords("phases");
    return phases_;
}

const std::vector<CycleRecord> &
GcEventLog::cycles() const
{
    requireRecords("cycles");
    return cycles_;
}

namespace {

/** Length of the overlap of [b, e) with [from, to); to < 0 = open. */
double
overlap(sim::Time b, sim::Time e, sim::Time from, sim::Time to)
{
    const double hi = to < 0.0 ? e : std::min(e, to);
    const double lo = std::max(b, from);
    return std::max(0.0, hi - lo);
}

} // namespace

double
GcEventLog::stwWall(sim::Time from, sim::Time to) const
{
    requireRecords("stwWall");
    double total = 0.0;
    for (const auto &p : phases_) {
        if (!isStwPhase(p.phase))
            continue;
        total += overlap(p.begin, p.end, from, to);
    }
    return total;
}

double
GcEventLog::stwCpu(sim::Time from, sim::Time to) const
{
    requireRecords("stwCpu");
    double total = 0.0;
    for (const auto &p : phases_) {
        if (!isStwPhase(p.phase))
            continue;
        const double window = p.duration();
        if (window <= 0.0) {
            continue;
        }
        const double frac = overlap(p.begin, p.end, from, to) / window;
        total += p.cpu * frac;
    }
    return total;
}

double
GcEventLog::totalGcCpu() const
{
    requireRecords("totalGcCpu");
    double total = 0.0;
    for (const auto &p : phases_)
        total += p.cpu;
    return total;
}

double
GcEventLog::maxPause() const
{
    requireRecords("maxPause");
    double longest = 0.0;
    for (const auto &p : phases_) {
        if (isStwPhase(p.phase))
            longest = std::max(longest, p.duration());
    }
    return longest;
}

std::size_t
GcEventLog::pauseCount() const
{
    requireRecords("pauseCount");
    std::size_t n = 0;
    for (const auto &p : phases_)
        n += isStwPhase(p.phase);
    return n;
}

std::vector<std::pair<sim::Time, sim::Time>>
GcEventLog::stwIntervals() const
{
    requireRecords("stwIntervals");
    std::vector<std::pair<sim::Time, sim::Time>> intervals;
    for (const auto &p : phases_) {
        if (isStwPhase(p.phase) && p.duration() > 0.0)
            intervals.emplace_back(p.begin, p.end);
    }
    return intervals;
}

} // namespace capo::runtime
