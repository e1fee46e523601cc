#include "runtime/gc_event_log.hh"

#include <algorithm>

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
}

void
GcEventLog::recordCycle(const CycleRecord &cycle)
{
    cycles_.push_back(cycle);
}

void
GcEventLog::recordStall(sim::Time begin, sim::Time end)
{
    CAPO_ASSERT(end >= begin, "stall ends before it begins");
    stall_wall_ += end - begin;
    ++stall_count_;
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
    double total = 0.0;
    for (const auto &p : phases_)
        total += p.cpu;
    return total;
}

double
GcEventLog::maxPause() const
{
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
    std::size_t n = 0;
    for (const auto &p : phases_)
        n += isStwPhase(p.phase);
    return n;
}

std::vector<std::pair<sim::Time, sim::Time>>
GcEventLog::stwIntervals() const
{
    std::vector<std::pair<sim::Time, sim::Time>> intervals;
    for (const auto &p : phases_) {
        if (isStwPhase(p.phase) && p.duration() > 0.0)
            intervals.emplace_back(p.begin, p.end);
    }
    return intervals;
}

} // namespace capo::runtime
