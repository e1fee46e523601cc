#include "trace/sampler.hh"

#include "sim/engine.hh"
#include "support/logging.hh"

namespace capo::trace {

MetricsSampler::MetricsSampler(TraceSink &sink, double interval_ns)
    : sink_(sink), interval_ns_(interval_ns)
{
    CAPO_ASSERT(interval_ns > 0.0, "sampling interval must be positive");
    track_ = sink_.registerTrack("counters");
}

void
MetricsSampler::addProbe(const std::string &name,
                         std::function<double()> read)
{
    CAPO_ASSERT(read != nullptr, "null metric probe");
    probes_.push_back(Probe{sink_.internName(name), std::move(read)});
}

void
MetricsSampler::attach(sim::Engine &engine)
{
    engine.addAgent(this);
}

sim::Action
MetricsSampler::resume(sim::Engine &engine)
{
    if (stop_requested_)
        return sim::Action::exit();
    const double now = engine.now();
    for (const auto &probe : probes_) {
        const double value = probe.read();
        sink_.counter(track_, Category::Metrics, probe.name, now, value);
        sink_.sample(probe.name, value);
    }
    return sim::Action::sleepUntil(now + interval_ns_);
}

} // namespace capo::trace
