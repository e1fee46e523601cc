#include "metrics/summary.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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

namespace {

/** An order-preserving integer image of a double: a < b exactly when
 *  key(a) < key(b), for all non-NaN values. Adding +0.0 turns -0.0
 *  into +0.0, so both zeros, which compare equal, share +0's image. */
std::uint64_t
orderedKey(double v)
{
    const auto bits = std::bit_cast<std::uint64_t>(v + 0.0);
    return bits ^ (-(bits >> 63) | (std::uint64_t{1} << 63));
}

/** Samples below this size select among all their values, with no
 *  histogram or rank table. Up to about 4096 doubles (32 KB) selection
 *  runs in the L1 cache and costs less than the three passes below;
 *  both measured equal near 5000. */
constexpr std::size_t kMinRadixSample = 5000;

/**
 * Narrows @p values (at least kMinRadixSample of them) to the buckets
 * that hold the order statistics at @p ranks (ascending, each
 * < values.size()) and rewrites each rank as a rank among what is kept.
 *
 * After a pass for the smallest and largest key, one pass counts the
 * values per prefix of orderedKey()'s offset from the smallest key. A
 * bucket holds 16 to 64 values on average, up to 2^16 buckets, so the
 * histogram grows with the sample. A last pass moves the members of
 * the buckets holding a wanted rank to the front of @p values and
 * drops the rest. The key is monotone, so every dropped bucket lies
 * wholly below or above each kept one, and a rank among the kept
 * values is its rank in the sample less the values dropped below it.
 */
void
keepRankBuckets(std::vector<double> &values, std::vector<std::size_t> &ranks)
{
    const std::size_t n = values.size();
    const int bits = std::min(static_cast<int>(std::bit_width(n)) - 5, 16);
    std::uint64_t lo_key = ~std::uint64_t{0};
    std::uint64_t hi_key = 0;
    for (double v : values) {
        const std::uint64_t key = orderedKey(v);
        lo_key = std::min(lo_key, key);
        hi_key = std::max(hi_key, key);
    }
    const int shift = std::max(
        static_cast<int>(std::bit_width(hi_key - lo_key)) - bits, 0);
    const auto bucket = [&](double v) {
        return static_cast<std::size_t>((orderedKey(v) - lo_key) >> shift);
    };

    // first[b] is the rank of bucket b's smallest value.
    std::vector<std::size_t> first(((hi_key - lo_key) >> shift) + 2);
    for (double v : values)
        ++first[bucket(v) + 1];
    for (std::size_t b = 1; b < first.size(); ++b)
        first[b] += first[b - 1];
    const auto holding = [&](std::size_t rank) {
        return static_cast<std::size_t>(
            std::upper_bound(first.begin(), first.end(), rank) -
            first.begin() - 1);
    };
    std::vector<std::size_t> kept;
    for (std::size_t rank : ranks) {
        kept.push_back(holding(rank));
        if (rank + 1 < n)
            kept.push_back(holding(rank + 1));
    }
    std::sort(kept.begin(), kept.end());
    kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
    for (std::size_t &rank : ranks) {
        const std::size_t b = holding(rank);
        std::size_t below = rank - first[b];
        for (std::size_t k = 0; kept[k] != b; ++k)
            below += first[kept[k] + 1] - first[kept[k]];
        rank = below;
    }

    // The histogram becomes a keep flag per bucket.
    std::fill(first.begin(), first.end(), 0);
    for (std::size_t b : kept)
        first[b] = 1;
    std::size_t size = 0;
    for (double v : values) {
        values[size] = v;
        size += first[bucket(v)];
    }
    values.resize(size);
}

} // namespace

std::vector<double>
quantiles(std::vector<double> values, const std::vector<double> &qs)
{
    const std::size_t n = values.size();
    checkQuantile(n, 0.0);  // an empty sample throws even for no qs
    double prev_q = 0.0;
    for (double q : qs) {
        checkQuantile(n, q);
        if (q < prev_q)
            throw std::invalid_argument("quantiles must be ascending");
        prev_q = q;
    }
    // From kMinRadixSample values on, only the buckets holding order
    // statistics lo and lo+1 of some q are selected among, at ranks[i]
    // in place of q_i's lo. Order statistics are values: the kept
    // buckets hold the same lo-th and (lo+1)-th smallest doubles the
    // whole sample does, so narrowing moves no bits.
    std::vector<std::size_t> ranks;
    if (n >= kMinRadixSample) {
        for (double q : qs) {
            ranks.push_back(static_cast<std::size_t>(
                q * static_cast<double>(n - 1)));
        }
        keepRankBuckets(values, ranks);
    }

    std::vector<double> out;
    out.reserve(qs.size());
    // Selecting order statistic lo leaves everything before it no
    // larger and everything after no smaller, so the next (larger) q
    // selects within [lo, end) only. The interpolation reads the same
    // two order statistics quantileSorted() would, and equal doubles
    // have equal bits, so the result is bit-identical to a sort.
    auto first = values.begin();
    for (std::size_t i = 0; i < qs.size(); ++i) {
        const double pos = qs[i] * static_cast<double>(n - 1);
        const std::size_t lo = static_cast<std::size_t>(pos);
        const auto at = values.begin() + static_cast<std::ptrdiff_t>(
                                             ranks.empty() ? lo : ranks[i]);
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
