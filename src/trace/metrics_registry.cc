#include "trace/metrics_registry.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace capo::trace {

void
Histogram::record(double value)
{
    detail::atomicMin(min_, value);
    detail::atomicMax(max_, value);
    count_.fetch_add(1, std::memory_order_relaxed);
    detail::atomicAdd(sum_, value);
    detail::atomicAdd(sum_sq_, value * value);
    buckets_[bucketOf(value)].fetch_add(1, std::memory_order_relaxed);
}

int
Histogram::bucketOf(double value)
{
    if (!(value > 0.0))
        return 0;
    const double position =
        kBucketsPerDecade * std::log10(value / kFirstBucketValue);
    const int bucket = 1 + static_cast<int>(std::floor(position));
    return std::clamp(bucket, 1, kBuckets - 1);
}

double
Histogram::bucketMid(int bucket)
{
    if (bucket == 0)
        return 0.0;
    // Geometric midpoint of [lo, lo * step).
    const double step = std::pow(10.0, 1.0 / kBucketsPerDecade);
    const double lo =
        kFirstBucketValue * std::pow(step, bucket - 1);
    return lo * std::sqrt(step);
}

double
Histogram::min() const
{
    return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double
Histogram::max() const
{
    return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double
Histogram::mean() const
{
    const auto n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double
Histogram::stddev() const
{
    const auto n_samples = count();
    if (n_samples < 2)
        return 0.0;
    const double n = static_cast<double>(n_samples);
    const double sq = sum_sq_.load(std::memory_order_relaxed);
    const double var = std::max(0.0, sq / n - mean() * mean());
    return std::sqrt(var);
}

double
Histogram::quantile(double q) const
{
    CAPO_ASSERT(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
    if (count() == 0)
        return 0.0;
    const auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count())));
    std::uint64_t cumulative = 0;
    for (int b = 0; b < kBuckets; ++b) {
        cumulative += buckets_[b].load(std::memory_order_relaxed);
        if (cumulative >= std::max<std::uint64_t>(target, 1))
            return std::clamp(bucketMid(b), min(), max());
    }
    return max();
}

MetricsRegistry::Entry &
MetricsRegistry::fetch(const std::string &name, Kind kind)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_name_.find(name);
    if (it != by_name_.end()) {
        auto &entry = entries_[it->second];
        CAPO_ASSERT(entry.kind == kind, "metric '", name,
                    "' already registered as ", kindName(entry.kind));
        return entry;
    }
    by_name_.emplace(name, entries_.size());
    entries_.emplace_back(name, kind);
    return entries_.back();
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return fetch(name, Kind::Counter).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return fetch(name, Kind::Gauge).gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    return fetch(name, Kind::Histogram).histogram;
}

void
MetricsRegistry::forEach(
    const std::function<void(const Entry &)> &visit) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &entry : entries_)
        visit(entry);
}

bool
MetricsRegistry::contains(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return by_name_.count(name) != 0;
}

std::size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

const char *
MetricsRegistry::kindName(Kind kind)
{
    switch (kind) {
      case Kind::Counter:
        return "counter";
      case Kind::Gauge:
        return "gauge";
      case Kind::Histogram:
        return "histogram";
    }
    return "?";
}

} // namespace capo::trace
