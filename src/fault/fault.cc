#include "fault/fault.hh"

#include <cctype>
#include <sstream>

#include "support/logging.hh"

namespace capo::fault {

namespace {

std::string
trimCopy(const std::string &text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

bool
parseRate(const std::string &text, double &rate, std::string &error)
{
    try {
        std::size_t used = 0;
        rate = std::stod(text, &used);
        if (used != text.size()) {
            error = "trailing garbage in fault rate '" + text + "'";
            return false;
        }
    } catch (...) {
        error = "bad fault rate '" + text + "'";
        return false;
    }
    if (!(rate >= 0.0) || rate > 1.0) {
        error = "fault rate out of [0, 1]: '" + text + "'";
        return false;
    }
    return true;
}

bool
siteFromName(const std::string &name, Site &site)
{
    if (name == "alloc" || name == "alloc-oom" || name == "oom") {
        site = Site::AllocOom;
    } else if (name == "stall" || name == "alloc-stall") {
        site = Site::AllocStall;
    } else if (name == "gc" || name == "gc-abort") {
        site = Site::GcPhaseAbort;
    } else if (name == "timer") {
        site = Site::TimerPerturb;
    } else if (name == "worker") {
        site = Site::WorkerDeath;
    } else if (name == "artifact" || name == "artifact-io") {
        site = Site::ArtifactIo;
    } else {
        return false;
    }
    return true;
}

} // namespace

const char *
siteName(Site site)
{
    switch (site) {
      case Site::AllocOom:
        return "alloc-oom";
      case Site::AllocStall:
        return "alloc-stall";
      case Site::GcPhaseAbort:
        return "gc-abort";
      case Site::TimerPerturb:
        return "timer";
      case Site::WorkerDeath:
        return "worker";
      case Site::ArtifactIo:
        return "artifact-io";
    }
    return "?";
}

bool
FaultPlan::enabled() const
{
    for (double r : rates) {
        if (r > 0.0)
            return true;
    }
    return false;
}

bool
parseFaultSpec(const std::string &spec, FaultPlan &plan,
               std::string &error)
{
    const std::string trimmed = trimCopy(spec);
    plan.rates = {};
    if (trimmed.empty() || trimmed == "none" || trimmed == "0")
        return true;

    // A bare number arms every site at that rate.
    if (trimmed.find('=') == std::string::npos &&
        trimmed.find(',') == std::string::npos) {
        double rate = 0.0;
        if (!parseRate(trimmed, rate, error))
            return false;
        plan.rates.fill(rate);
        return true;
    }

    std::stringstream ss(trimmed);
    std::string item;
    while (std::getline(ss, item, ',')) {
        item = trimCopy(item);
        if (item.empty())
            continue;
        const auto eq = item.find('=');
        if (eq == std::string::npos) {
            error = "fault spec item '" + item +
                    "' is not site=rate";
            return false;
        }
        Site site;
        const std::string name = trimCopy(item.substr(0, eq));
        if (!siteFromName(name, site)) {
            error = "unknown fault site '" + name + "'";
            return false;
        }
        double rate = 0.0;
        if (!parseRate(trimCopy(item.substr(eq + 1)), rate, error))
            return false;
        plan.setRate(site, rate);
    }
    return true;
}

FaultInjector::FaultInjector(const FaultPlan &plan,
                             std::uint64_t cell_seed, int attempt)
    : plan_(plan)
{
    std::uint64_t state =
        exec::seedCombine(exec::mix64(plan.seed), cell_seed);
    state = exec::seedCombine(state,
                              static_cast<std::uint64_t>(attempt));
    state_ = state;
}

double
FaultInjector::draw(Site site)
{
    const auto index = static_cast<std::size_t>(site);
    const std::uint64_t n = counters_[index]++;
    const std::uint64_t word =
        exec::mix64(state_ ^ exec::mix64((static_cast<std::uint64_t>(
                                              index + 1)
                                          << 56) ^
                                         n));
    // 53 high-quality bits -> uniform double in [0, 1).
    return static_cast<double>(word >> 11) * 0x1.0p-53;
}

bool
FaultInjector::fire(Site site, double now_ns)
{
    // Per-site counters are independent, so a disarmed site can skip
    // its draw entirely without shifting any other site's schedule.
    const double rate = plan_.rate(site);
    if (rate <= 0.0)
        return false;
    if (draw(site) >= rate)
        return false;

    InjectedFault record;
    record.site = site;
    record.sequence = counters_[static_cast<std::size_t>(site)] - 1;
    record.sim_time_ns = now_ns;
    injected_.push_back(record);

    if (sink_ != nullptr) {
        sink_->instant(track_, trace::Category::Fault, siteName(site),
                       now_ns,
                       static_cast<double>(record.sequence));
    }
    if (metrics_ != nullptr) {
        metrics_
            ->counter(std::string("fault.injected.") + siteName(site))
            .increment();
    }
    return true;
}

double
FaultInjector::timerJitter(double now_ns)
{
    if (!fire(Site::TimerPerturb, now_ns))
        return 0.0;
    // An independent deterministic deviate for the magnitude, so the
    // fire/no-fire stream and the jitter stream do not alias.
    const double u = draw(Site::TimerPerturb);
    return (2.0 * u - 1.0) * plan_.timer_jitter_ns;
}

void
FaultInjector::attachTrace(trace::TraceSink *sink, trace::TrackId track)
{
    sink_ = sink;
    track_ = track;
}

void
FaultInjector::attachMetrics(trace::MetricsRegistry *metrics)
{
    metrics_ = metrics;
}

} // namespace capo::fault
