#include "load/arrival.hh"

#include <cmath>
#include <numbers>

#include "support/logging.hh"

namespace capo::load {

std::string_view
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson: return "poisson";
      case ArrivalKind::OnOff: return "onoff";
      case ArrivalKind::Diurnal: return "diurnal";
    }
    return "?";
}

bool
tryArrivalKindFromName(std::string_view name, ArrivalKind *out)
{
    if (name == "poisson")
        *out = ArrivalKind::Poisson;
    else if (name == "onoff")
        *out = ArrivalKind::OnOff;
    else if (name == "diurnal")
        *out = ArrivalKind::Diurnal;
    else
        return false;
    return true;
}

ArrivalGenerator::ArrivalGenerator(const ArrivalSpec &spec,
                                   support::Rng rng)
    : spec_(spec), rng_(rng)
{
    CAPO_ASSERT(spec_.rate_per_sec > 0.0 && std::isfinite(spec_.rate_per_sec),
                "arrival rate must be positive and finite");
    if (spec_.kind == ArrivalKind::OnOff) {
        CAPO_ASSERT(spec_.burst_ratio >= 1.0 && spec_.burst_duty > 0.0 &&
                        spec_.burst_duty < 1.0 &&
                        spec_.burst_mean_ns > 0.0,
                    "bad on/off burst parameters");
        // Split the mean rate so bursts run burst_ratio times the calm
        // rate while occupying burst_duty of the time.
        rate_off_ = spec_.rate_per_sec /
                    (spec_.burst_duty * spec_.burst_ratio +
                     (1.0 - spec_.burst_duty));
        rate_on_ = spec_.burst_ratio * rate_off_;
        state_left_ns_ = rng_.exponential(offMeanNs());
    } else if (spec_.kind == ArrivalKind::Diurnal) {
        CAPO_ASSERT(spec_.diurnal_depth >= 0.0 &&
                        spec_.diurnal_depth < 1.0 &&
                        spec_.diurnal_period_ns > 0.0,
                    "bad diurnal parameters");
    }
}

double
ArrivalGenerator::next()
{
    switch (spec_.kind) {
      case ArrivalKind::Poisson: return nextPoisson();
      case ArrivalKind::OnOff: return nextOnOff();
      case ArrivalKind::Diurnal: return nextDiurnal();
    }
    return nextPoisson();
}

double
ArrivalGenerator::nextPoisson()
{
    return rng_.exponential(1e9 / spec_.rate_per_sec);
}

double
ArrivalGenerator::nextOnOff()
{
    // Two-state MMPP: exponential gaps at the state's rate; a gap that
    // crosses the sojourn boundary is discarded past the boundary and
    // redrawn in the new state (memoryless, so this is exact).
    double elapsed = 0.0;
    for (;;) {
        const double state_rate = in_burst_ ? rate_on_ : rate_off_;
        const double gap = rng_.exponential(1e9 / state_rate);
        if (gap <= state_left_ns_) {
            state_left_ns_ -= gap;
            return elapsed + gap;
        }
        elapsed += state_left_ns_;
        in_burst_ = !in_burst_;
        state_left_ns_ = rng_.exponential(in_burst_ ? spec_.burst_mean_ns
                                                    : offMeanNs());
    }
}

double
ArrivalGenerator::nextDiurnal()
{
    // Thinning against the peak rate: candidate arrivals at
    // rate*(1+depth), each kept with probability lambda(t)/lambda_max.
    const double peak = spec_.rate_per_sec * (1.0 + spec_.diurnal_depth);
    double elapsed = 0.0;
    for (;;) {
        const double gap = rng_.exponential(1e9 / peak);
        elapsed += gap;
        clock_ns_ += gap;
        const double phase = 2.0 * std::numbers::pi * clock_ns_ /
                             spec_.diurnal_period_ns;
        const double accept =
            (1.0 + spec_.diurnal_depth * std::sin(phase)) /
            (1.0 + spec_.diurnal_depth);
        if (rng_.uniform() < accept)
            return elapsed;
    }
}

} // namespace capo::load
