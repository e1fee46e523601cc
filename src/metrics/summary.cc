#include "metrics/summary.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/logging.hh"
#include "support/strfmt.hh"

namespace capo::metrics {

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
sampleStddev(const std::vector<double> &values)
{
    const std::size_t n = values.size();
    if (n < 2)
        return 0.0;
    const double m = mean(values);
    double ss = 0.0;
    for (double v : values)
        ss += (v - m) * (v - m);
    return std::sqrt(ss / static_cast<double>(n - 1));
}

double
geomean(const std::vector<double> &values)
{
    CAPO_ASSERT(!values.empty(), "geomean of empty sample");
    double log_sum = 0.0;
    for (double v : values) {
        CAPO_ASSERT(v > 0.0, "geomean needs positive values, got ", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

/** Two-sided 97.5 % Student-t critical values by degrees of freedom. */
double
tCritical95(std::size_t dof)
{
    static const double table[] = {
        0.0,   12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
        2.306, 2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
        2.120, 2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
        2.064, 2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (dof == 0)
        return 0.0;
    if (dof < sizeof(table) / sizeof(table[0]))
        return table[dof];
    return 1.96;
}

} // namespace

double
confidenceHalfWidth95(const std::vector<double> &values)
{
    const std::size_t n = values.size();
    if (n < 2)
        return 0.0;
    return tCritical95(n - 1) * sampleStddev(values) /
           std::sqrt(static_cast<double>(n));
}

Summary
summarize(const std::vector<double> &values)
{
    return Summary{mean(values), confidenceHalfWidth95(values),
                   values.size()};
}

namespace {

/** The quantile contract, checked in every build: an empty sample
 *  has no quantiles, and a q outside [0, 1] (or NaN) would index
 *  outside it. */
void
checkQuantile(std::size_t n, double q)
{
    if (n == 0)
        throw std::invalid_argument("quantile of empty sample");
    if (!(q >= 0.0 && q <= 1.0)) {
        throw std::invalid_argument(
            support::concat("quantile must be in [0, 1], got ", q));
    }
}

} // namespace

double
quantileSorted(const std::vector<double> &sorted, double q)
{
    checkQuantile(sorted.size(), q);
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    if (lo + 1 >= sorted.size())
        return sorted.back();
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

std::vector<double>
quantiles(std::vector<double> values, const std::vector<double> &qs)
{
    const std::size_t n = values.size();
    checkQuantile(n, 0.0);  // an empty sample throws even for no qs
    std::vector<double> out;
    out.reserve(qs.size());
    // Selecting order statistic lo leaves everything before it no
    // larger and everything after no smaller, so the next (larger) q
    // selects within [lo, n) only. The interpolation reads the same
    // two order statistics quantileSorted() would, and equal doubles
    // have equal bits, so the result is bit-identical to a sort.
    auto first = values.begin();
    double prev_q = 0.0;
    for (double q : qs) {
        checkQuantile(n, q);
        if (q < prev_q)
            throw std::invalid_argument("quantiles must be ascending");
        prev_q = q;
        const double pos = q * static_cast<double>(n - 1);
        const std::size_t lo = static_cast<std::size_t>(pos);
        const auto at = values.begin() + static_cast<std::ptrdiff_t>(lo);
        std::nth_element(first, at, values.end());
        first = at;
        if (lo + 1 >= n) {
            out.push_back(*at);  // the maximum, as sorted.back()
            continue;
        }
        const double frac = pos - static_cast<double>(lo);
        const double next = *std::min_element(at + 1, values.end());
        out.push_back(*at * (1.0 - frac) + next * frac);
    }
    return out;
}

double
quantile(std::vector<double> values, double q)
{
    return quantiles(std::move(values), {q}).front();
}

} // namespace capo::metrics
