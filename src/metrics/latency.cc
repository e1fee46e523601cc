#include "metrics/latency.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "metrics/summary.hh"
#include "support/logging.hh"

namespace capo::metrics {

void
LatencyRecorder::record(double start, double end)
{
    CAPO_ASSERT(end >= start, "event ends before it starts");
    events_.push_back(LatencyEvent{start, end, start});
}

void
LatencyRecorder::record(double intended, double start, double end)
{
    CAPO_ASSERT(intended <= start, "event intended after service start");
    CAPO_ASSERT(end >= start, "event ends before it starts");
    events_.push_back(LatencyEvent{start, end, intended});
}

void
LatencyRecorder::reserve(std::size_t n)
{
    events_.reserve(n);
}

std::vector<double>
LatencyRecorder::simpleLatencies() const
{
    std::vector<double> out;
    out.reserve(events_.size());
    for (const auto &e : events_)
        out.push_back(e.latency());
    return out;
}

std::vector<double>
LatencyRecorder::intendedLatencies() const
{
    std::vector<double> out;
    out.reserve(events_.size());
    for (const auto &e : events_)
        out.push_back(e.intendedLatency());
    return out;
}

double
LatencyRecorder::spanBegin() const
{
    double t = 0.0;
    bool first = true;
    for (const auto &e : events_) {
        if (first || e.start < t) {
            t = e.start;
            first = false;
        }
    }
    return t;
}

double
LatencyRecorder::spanEnd() const
{
    double t = 0.0;
    bool first = true;
    for (const auto &e : events_) {
        if (first || e.end > t) {
            t = e.end;
            first = false;
        }
    }
    return t;
}

namespace {

/** A breakpoint of the smoothed cumulative arrival function R(t): at
 *  time t its slope changes by slope_delta (+1/W where an event's
 *  window opens, -1/W where it closes). */
struct Edge
{
    double t;
    double slope_delta;
};

bool
earlier(const Edge &a, const Edge &b)
{
    return a.t < b.t;
}

/**
 * Each start s spreads arrival density 1/W over [s - W/2, s + W/2],
 * clipped to the observed span [t0, t1]. Mass falling outside the span
 * is reflected back inside (standard density boundary correction), so
 * R(t1) = n exactly and edge events are not biased early or late —
 * without this, the last events of a run would inherit a spurious
 * ~W/8 queueing delay.
 */
struct Window
{
    double t0;
    double t1;
    double half;
    double unit_slope;

    double rise(double s) const { return std::max(s - half, t0); }
    double fall(double s) const { return std::min(s + half, t1); }

    /** Appends [lo, hi] as a rising and a falling edge, unless empty. */
    void
    add(std::vector<Edge> &out, double lo, double hi) const
    {
        if (hi <= lo)
            return;
        out.push_back({lo, unit_slope});
        out.push_back({hi, -unit_slope});
    }

    /** Appends the reflected overflow of start @p s at either end. */
    void
    reflect(std::vector<Edge> &out, double s) const
    {
        const double a = s - half;
        const double b = s + half;
        if (a < t0)
            add(out, t0, t0 + (t0 - a));
        if (b > t1)
            add(out, t1 - (b - t1), t1);
    }
};

/**
 * Calls @p visit(e) for every edge of ascending starts in ascending t,
 * merged from three ascending runs: the rising edges rise(s) and the
 * falling edges fall(s), read straight from the starts (every window
 * non-empty), and the sorted reflections. Where all edges at each t
 * are bitwise identical, this order is the only ascending one, so it
 * is exactly what a sort of the same edges yields; returns whether
 * that held.
 */
template <class StartAt, class Visit>
bool
mergeEdges(std::size_t n, const StartAt &start_at, const Window &window,
           const std::vector<Edge> &reflected, Visit &&visit)
{
    constexpr double kEnd = std::numeric_limits<double>::infinity();
    std::size_t rise = 0;
    std::size_t fall = 0;
    std::size_t refl = 0;
    double rise_t = window.rise(start_at(0));
    double fall_t = window.fall(start_at(0));
    Edge last{-kEnd, 0.0};
    bool unique = true;
    // Each window rises before it falls, so the falling run ends last
    // of the two.
    while (fall < n || refl < reflected.size()) {
        Edge e;
        const bool rising = rise_t <= fall_t;
        if (refl < reflected.size() &&
            (fall == n || reflected[refl].t < (rising ? rise_t : fall_t))) {
            e = reflected[refl++];
        } else if (rising) {
            e = {rise_t, window.unit_slope};
            rise_t = ++rise < n ? window.rise(start_at(rise)) : kEnd;
        } else {
            e = {fall_t, -window.unit_slope};
            fall_t = ++fall < n ? window.fall(start_at(fall)) : kEnd;
        }
        // A decrease, or two different edges at one t (a window opening
        // exactly where another closes), whose order a sort leaves open.
        if (!(last.t < e.t) && std::memcmp(&last, &e, sizeof e) != 0)
            unique = false;
        last = e;
        visit(e);
    }
    return unique;
}

/** R(t), advanced edge by edge from R(t0) = 0. Every path runs this
 *  one recurrence, so equal edge sequences give equal bits; R(t1)
 *  closes it with a step of slope change 0 at t1. */
struct Ramp
{
    double prev_t;
    double slope = 0.0;
    double r = 0.0;

    void
    step(const Edge &e)
    {
        r += slope * (e.t - prev_t);
        slope += e.slope_delta;
        prev_t = e.t;
    }
};

/**
 * Runs @p walk(visit), which calls visit(e) for every edge and returns
 * whether it visited them in the sort's order, twice: once for R(t1),
 * then to invert R at the normalized ranks, passing the i-th synthetic
 * start to @p emit(i, t). Returns false, having emitted nothing, if the
 * first walk did not.
 */
template <class Walk, class Emit>
bool
invertWalk(const Walk &walk, double t0, double t1, std::size_t n,
           Emit &emit)
{
    Ramp ramp{t0};
    if (!walk([&](const Edge &e) { ramp.step(e); }))
        return false;
    ramp.step({t1, 0.0});
    const double total = ramp.r;
    CAPO_ASSERT(total > 0.0, "smoothed arrival mass vanished");

    // Midpoint ranks: an event sits at the centre of its own smoothed
    // arrival mass, so the identity (tiny-window) limit is exact and
    // residual error is bounded by a quarter of the mean inter-arrival
    // gap.
    auto rank = [&](std::size_t i) {
        return (static_cast<double>(i) + 0.5) / static_cast<double>(n) *
               total;
    };
    // Each point (t, R(t)), from (t0, 0) through one per edge to
    // (t1, total), serves the pending ranks up to R(t) from the segment
    // ending there, as a two-pointer search of the tabulated points
    // would. Every rank is at most total, so the last point serves all.
    std::size_t i = 0;
    double target = rank(0);
    double t_lo = t0;
    double r_lo = 0.0;
    auto point = [&](double t_hi, double r_hi) {
        for (; i < n && !(r_hi < target); target = rank(++i)) {
            emit(i, r_hi > r_lo ? t_lo + (target - r_lo) / (r_hi - r_lo) *
                                             (t_hi - t_lo)
                                : t_hi);
        }
        t_lo = t_hi;
        r_lo = r_hi;
    };
    Ramp again{t0};
    walk([&](const Edge &e) {
        again.step(e);
        point(e.t, again.r);
    });
    again.step({t1, 0.0});
    point(t1, again.r);
    CAPO_ASSERT(i == n, "a rank beyond the smoothed arrival mass");
    return true;
}

/**
 * The smoothing core behind syntheticStarts() and the metered views:
 * passes the synthetic start of the i-th of @p n ascending starts
 * (read as @p start_at(i)) to @p emit(i, t).
 *
 * Two walks over the merged edges, one for R(t1) and one to invert R,
 * replace sorting and tabulating them. A window opening exactly where
 * another closes (two starts exactly W apart) leaves the order of that
 * tie, and so the rounding of the slope sum, to the sort; such input
 * takes the sort-based path, whose bits it defines.
 */
template <class StartAt, class Emit>
void
smoothStarts(std::size_t n, const StartAt &start_at, double window_ns,
             Emit emit)
{
    if (n == 0)
        return;

    const double t0 = start_at(0);
    const double t1 = start_at(n - 1);
    const double span = t1 - t0;
    // All simultaneous, or a (positive) window below the span's
    // floating-point resolution: nothing to smooth. The latter
    // short-circuits to the identity rather than sweeping ramps whose
    // widths are dominated by rounding error. (window_ns <= 0 selects
    // full smoothing below.)
    if (span <= 0.0 || (window_ns > 0.0 && window_ns < span * 1e-9)) {
        for (std::size_t i = 0; i < n; ++i)
            emit(i, start_at(i));
        return;
    }

    // Full smoothing: uniform arrivals over the span. The grid is
    // endpoint-inclusive so that already-uniform arrivals map onto
    // themselves (metered == simple for a perfectly steady run).
    if (window_ns <= 0.0 || window_ns >= 2.0 * span) {
        for (std::size_t i = 0; i < n; ++i) {
            emit(i, t0 + (static_cast<double>(i) + 0.5) /
                             static_cast<double>(n) * span);
        }
        return;
    }

    const Window window{t0, t1, window_ns / 2.0, 1.0 / window_ns};
    std::vector<Edge> reflected;
    bool all_open = true;
    for (std::size_t i = 0; i < n; ++i) {
        const double s = start_at(i);
        all_open &= window.rise(s) < window.fall(s);
        window.reflect(reflected, s);
    }
    std::sort(reflected.begin(), reflected.end(), earlier);
    const auto merged = [&](auto &&visit) {
        return mergeEdges(n, start_at, window, reflected, visit);
    };
    if (all_open && invertWalk(merged, t0, t1, n, emit))
        return;

    // A tie between a rising and a falling edge, or a window that
    // rounds to nothing or is not a number: sort every edge, in the
    // order each start generates them, as such input's reference.
    std::vector<Edge> edges;
    edges.reserve(4 * n);
    for (std::size_t i = 0; i < n; ++i) {
        const double s = start_at(i);
        window.add(edges, window.rise(s), window.fall(s));
        window.reflect(edges, s);
    }
    std::sort(edges.begin(), edges.end(), earlier);
    const auto sorted = [&](auto &&visit) {
        for (const Edge &e : edges)
            visit(e);
        return true;
    };
    invertWalk(sorted, t0, t1, n, emit);
}

} // namespace

std::vector<double>
LatencyRecorder::syntheticStarts(double window_ns) const
{
    std::vector<double> starts;
    starts.reserve(events_.size());
    for (const auto &e : events_)
        starts.push_back(e.start);
    std::sort(starts.begin(), starts.end());
    std::vector<double> synth(starts.size());
    smoothStarts(
        starts.size(), [&](std::size_t i) { return starts[i]; }, window_ns,
        [&](std::size_t i, double t) { synth[i] = t; });
    return synth;
}

std::vector<LatencyEvent>
LatencyRecorder::eventsByStart() const
{
    std::vector<LatencyEvent> by_start = events_;
    std::sort(by_start.begin(), by_start.end(),
              [](const LatencyEvent &a, const LatencyEvent &b) {
                  return a.start < b.start;
              });
    return by_start;
}

std::vector<double>
LatencyRecorder::meteredLatencies(double window_ns) const
{
    return meteredByStart(eventsByStart(), window_ns);
}

std::vector<double>
LatencyRecorder::meteredByStart(const std::vector<LatencyEvent> &by_start,
                                double window_ns)
{
    // The start order is the smoothing core's input as well, so the
    // one sort serves both: the i-th start-ordered event is paired with
    // the i-th synthetic start as it is produced.
    std::vector<double> out(by_start.size());
    smoothStarts(
        by_start.size(),
        [&](std::size_t i) { return by_start[i].start; }, window_ns,
        [&](std::size_t i, double synth) {
            out[i] = by_start[i].end - std::min(by_start[i].start, synth);
        });
    return out;
}

const std::vector<double> &
paperPercentiles()
{
    static const std::vector<double> points = {
        0.0, 0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999,
    };
    return points;
}

std::vector<std::pair<double, double>>
percentileCurve(std::vector<double> latencies)
{
    std::vector<std::pair<double, double>> curve;
    if (latencies.empty())
        return curve;
    const auto &points = paperPercentiles();
    const auto values = quantiles(std::move(latencies), points);
    for (std::size_t i = 0; i < points.size(); ++i)
        curve.emplace_back(points[i], values[i]);
    return curve;
}

} // namespace capo::metrics
