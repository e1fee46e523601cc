#include "metrics/latency.hh"

#include <algorithm>
#include <cmath>

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

/** Synthetic start times for ascending @p starts (the smoothing core
 *  behind syntheticStarts() and meteredLatencies()). */
std::vector<double>
smoothStarts(std::vector<double> starts, double window_ns)
{
    const std::size_t n = starts.size();
    if (n == 0)
        return {};

    const double t0 = starts.front();
    const double t1 = starts.back();
    const double span = t1 - t0;
    if (span <= 0.0)
        return starts;  // all simultaneous: nothing to smooth

    // A (positive) window below the span's floating-point resolution
    // smooths nothing; short-circuit to the identity rather than
    // sweeping ramps whose widths are dominated by rounding error.
    // (window_ns <= 0 selects full smoothing below.)
    if (window_ns > 0.0 && window_ns < span * 1e-9)
        return starts;

    // Full smoothing: uniform arrivals over the span. The grid is
    // endpoint-inclusive so that already-uniform arrivals map onto
    // themselves (metered == simple for a perfectly steady run).
    if (window_ns <= 0.0 || window_ns >= 2.0 * span) {
        std::vector<double> synth(n);
        for (std::size_t i = 0; i < n; ++i) {
            synth[i] = t0 + (static_cast<double>(i) + 0.5) /
                                static_cast<double>(n) * span;
        }
        return synth;
    }

    // Build the window-smoothed cumulative arrival function R(t):
    // piecewise linear, with slope changing by +-1/W at each event's
    // window edges. Mass falling outside the observed span is
    // reflected back inside (standard density boundary correction),
    // so R(t1) = n exactly and edge events are not biased early or
    // late — without this, the last events of a run would inherit a
    // spurious ~W/8 queueing delay.
    struct Breakpoint {
        double t;
        double slope_delta;
    };
    std::vector<Breakpoint> breaks;
    breaks.reserve(4 * n);
    const double half = window_ns / 2.0;
    const double unit_slope = 1.0 / window_ns;
    auto add_interval = [&](double lo, double hi) {
        if (hi <= lo)
            return;
        breaks.push_back({lo, unit_slope});
        breaks.push_back({hi, -unit_slope});
    };
    for (double s : starts) {
        const double a = s - half;
        const double b = s + half;
        add_interval(std::max(a, t0), std::min(b, t1));
        if (a < t0)
            add_interval(t0, t0 + (t0 - a));  // reflect left overflow
        if (b > t1)
            add_interval(t1 - (b - t1), t1);  // reflect right overflow
    }
    std::sort(breaks.begin(), breaks.end(),
              [](const Breakpoint &a, const Breakpoint &b) {
                  return a.t < b.t;
              });

    // Sweep to tabulate R at each breakpoint.
    std::vector<double> bp_t, bp_r;
    bp_t.reserve(breaks.size() + 1);
    bp_r.reserve(breaks.size() + 1);
    double slope = 0.0;
    double r = 0.0;
    double prev_t = t0;
    bp_t.push_back(t0);
    bp_r.push_back(0.0);
    for (const auto &b : breaks) {
        r += slope * (b.t - prev_t);
        slope += b.slope_delta;
        prev_t = b.t;
        bp_t.push_back(b.t);
        bp_r.push_back(r);
    }
    r += slope * (t1 - prev_t);
    bp_t.push_back(t1);
    bp_r.push_back(r);
    const double total = r;
    CAPO_ASSERT(total > 0.0, "smoothed arrival mass vanished");

    // Invert R at the normalized ranks (two-pointer; ranks ascend).
    std::vector<double> synth(n);
    std::size_t seg = 0;
    for (std::size_t i = 0; i < n; ++i) {
        // Midpoint ranks: an event sits at the centre of its own
        // smoothed arrival mass, so the identity (tiny-window) limit
        // is exact and residual error is bounded by a quarter of the
        // mean inter-arrival gap.
        const double target = (static_cast<double>(i) + 0.5) /
                              static_cast<double>(n) * total;
        while (seg + 1 < bp_r.size() && bp_r[seg + 1] < target)
            ++seg;
        const double r_lo = bp_r[seg];
        const double r_hi = seg + 1 < bp_r.size() ? bp_r[seg + 1] : total;
        const double t_lo = bp_t[seg];
        const double t_hi = seg + 1 < bp_t.size() ? bp_t[seg + 1] : t1;
        if (r_hi > r_lo) {
            synth[i] = t_lo + (target - r_lo) / (r_hi - r_lo) *
                                  (t_hi - t_lo);
        } else {
            synth[i] = t_hi;
        }
    }
    return synth;
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
    return smoothStarts(std::move(starts), window_ns);
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
    // one sort serves both.
    std::vector<double> starts;
    starts.reserve(by_start.size());
    for (const auto &e : by_start)
        starts.push_back(e.start);
    const auto synth = smoothStarts(std::move(starts), window_ns);

    // Pair the i-th start-ordered event with the i-th synthetic start.
    std::vector<double> out;
    out.reserve(by_start.size());
    for (std::size_t i = 0; i < by_start.size(); ++i) {
        const double assumed = std::min(by_start[i].start, synth[i]);
        out.push_back(by_start[i].end - assumed);
    }
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
