/**
 * @file
 * Periodic metric sampling inside a simulation.
 *
 * A MetricsSampler is a lightweight agent that wakes on a fixed
 * sim-time interval and reads a set of probes (heap occupancy, live
 * bytes, runnable agents, collector CPU, ...). Every reading is
 * emitted as a counter event on the sink's counter track *and* kept
 * as a sample of a same-named histogram (TraceSink::sample), which
 * the sink's owner records into a MetricsRegistry after the run, so
 * the Perfetto counter tracks and the CSV summary describe the same
 * data.
 *
 * The sampler samples once at t=0 and then every interval; it exits at
 * the first wake-up after requestStop(), so a run's wall clock can
 * trail the mutator's exit by at most one interval when sampling is
 * enabled (and is untouched when it is not).
 */

#ifndef CAPO_TRACE_SAMPLER_HH
#define CAPO_TRACE_SAMPLER_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/agent.hh"
#include "trace/sink.hh"

namespace capo::sim {
class Engine;
}

namespace capo::trace {

/**
 * Agent that periodically samples probes into a sink.
 */
class MetricsSampler : public sim::Agent
{
  public:
    /**
     * @param sink Destination for counter events and samples.
     * @param interval_ns Sim-time between samples (> 0).
     */
    MetricsSampler(TraceSink &sink, double interval_ns);

    /** Register a probe before attach(); @p read must stay valid for
     *  the duration of the run. */
    void addProbe(const std::string &name, std::function<double()> read);

    /** Register with the engine (must be called before run()). */
    void attach(sim::Engine &engine);

    /** Ask the sampler to exit at its next wake-up. */
    void requestStop() { stop_requested_ = true; }

    std::string_view name() const override { return "metrics-sampler"; }
    sim::Action resume(sim::Engine &engine) override;

  private:
    struct Probe {
        const char *name;  ///< Interned in the sink.
        std::function<double()> read;
    };

    TraceSink &sink_;
    double interval_ns_;
    TrackId track_ = 0;
    std::vector<Probe> probes_;
    bool stop_requested_ = false;
};

} // namespace capo::trace

#endif // CAPO_TRACE_SAMPLER_HH
