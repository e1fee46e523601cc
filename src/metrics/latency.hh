/**
 * @file
 * User-experienced latency: DaCapo Chopin's Simple and Metered
 * latency metrics (paper Section 4.4).
 *
 * Simple latency is the observed duration of each event. Metered
 * latency additionally models request queueing: each event is given a
 * synthetic start time as if requests had arrived at a smoothed
 * (window-averaged) rate, and its latency is measured from the
 * *earlier* of its actual and synthetic starts — so a pause delays not
 * only in-flight requests but also the backlog behind them. A window
 * of ~0 reproduces simple latency; an arbitrarily large window yields
 * uniformly-spaced synthetic arrivals over the whole execution
 * ("full smoothing").
 *
 * Implementation: the synthetic arrival process is the inverse of the
 * window-smoothed empirical cumulative arrival function. Each actual
 * start contributes arrival density 1/W over [s - W/2, s + W/2],
 * clipped to the observed span; the resulting piecewise-linear
 * cumulative function is inverted at the normalized event ranks. This
 * is exact, monotone, and has the two limits above. Its breakpoints are
 * walked in one linear merge of the start-ordered window edges, without
 * a sort; input where a window opens exactly where another closes,
 * whose tie a sort would order, falls back to sorting them.
 */

#ifndef CAPO_METRICS_LATENCY_HH
#define CAPO_METRICS_LATENCY_HH

#include <cstddef>
#include <vector>

namespace capo::metrics {

/**
 * One timed event (a request, query, or frame). Times in ns.
 *
 * `start` is when service began (the request was picked up);
 * `intended` is when the client *intended* to issue it (its arrival,
 * or its slot in an ideal open-loop schedule). The gap between the
 * two latency definitions is exactly the coordinated-omission error a
 * closed-loop harness hides: `intendedLatency() >= latency()` always,
 * with equality when the server never queued the request.
 */
struct LatencyEvent
{
    double start = 0.0;
    double end = 0.0;
    double intended = 0.0;

    double latency() const { return end - start; }
    double intendedLatency() const { return end - intended; }
};

/**
 * Records event start/end times and derives latency distributions.
 */
class LatencyRecorder
{
  public:
    /** Record one event; @p end must be >= @p start. The intended
     *  start defaults to the service start (no queueing observed). */
    void record(double start, double end);

    /** Record one event with an explicit intended (arrival) stamp;
     *  requires @p intended <= @p start <= @p end. */
    void record(double intended, double start, double end);

    /** Reserve capacity (cheap recording matters; cf.\ the paper). */
    void reserve(std::size_t n);

    const std::vector<LatencyEvent> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }

    /** Simple (service-stamped) latencies, one per event (unsorted). */
    std::vector<double> simpleLatencies() const;

    /** Intended-start (arrival-stamped) latencies, one per event
     *  (unsorted); elementwise >= simpleLatencies(). */
    std::vector<double> intendedLatencies() const;

    /** The events ordered by service start in std::stable_sort's
     *  order: events with tied starts keep their recording order. One
     *  distribution pass over n buckets, not a comparison sort. */
    std::vector<LatencyEvent> eventsByStart() const;

    /**
     * Metered latencies with the given smoothing window (ns), one per
     * event in eventsByStart() order, so tied starts in recording
     * order. @p window_ns <= 0 selects full smoothing (uniform
     * synthetic arrivals over the observed span). Orders the events
     * once: the smoothing reads its start times from the same
     * start-ordered events it pairs them with.
     */
    std::vector<double> meteredLatencies(double window_ns) const;

    /** meteredLatencies() of events already in eventsByStart() order,
     *  for callers that need both (the i-th result belongs to
     *  @p by_start[i]). */
    static std::vector<double>
    meteredByStart(const std::vector<LatencyEvent> &by_start,
                   double window_ns);

    /**
     * Synthetic start times for the given window, in ascending order
     * (paired with events sorted by actual start). Exposed for tests
     * and offline analysis.
     */
    std::vector<double> syntheticStarts(double window_ns) const;

    /** Observed span: [first start, last end]. */
    double spanBegin() const;
    double spanEnd() const;

  private:
    std::vector<LatencyEvent> events_;
};

/**
 * The percentile points the paper plots (x-axis of Figures 3 and 6):
 * 0, 50, 90, 99, 99.9, 99.99, 99.999, 99.9999 (as fractions).
 */
const std::vector<double> &paperPercentiles();

/**
 * Evaluate a latency sample at the paper's percentile points.
 * Returns pairs of (percentile, latency_ns).
 */
std::vector<std::pair<double, double>>
percentileCurve(std::vector<double> latencies);

} // namespace capo::metrics

#endif // CAPO_METRICS_LATENCY_HH
