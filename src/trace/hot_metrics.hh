/**
 * @file
 * Lock-free fixed-bucket metrics for the simulation/execution hot
 * paths.
 *
 * The general MetricsRegistry (trace/metrics_registry.hh) resolves
 * metric *names* under a mutex and its log-bucketed Histogram computes
 * a log10 per record — fine for a periodic sampler, far too heavy for
 * code that runs millions of times per second across every pool
 * worker. This module is the hot tier: the metric set is fixed at
 * compile time (the ClickHouse `CurrentHistogramMetrics` idiom), each
 * metric's bucket bounds are `constexpr`, and all storage is one flat
 * array of relaxed atomics. A record is: one relaxed load of the
 * enable flag, a short constexpr-bounded scan for the bucket, and one
 * `fetch_add` — no mutex, no CAS loop, no allocation, ever.
 *
 * Determinism contract: hot metrics are *observational only*. They are
 * written from concurrently executing workers and read at quiescence
 * (snapshot()); nothing on any result path may read them, so their
 * cross-thread interleaving can never perturb experiment output.
 *
 * Disabled behaviour: the gate is off by default, and only measuring
 * programs turn it on (perfbench's traced run, bench/micro_trace.cc,
 * the tests). Off, observe()/count() cost a single relaxed load and
 * branch — cheap enough to leave compiled into every hot loop
 * unconditionally (bench/micro_trace.cc holds the proof).
 */

#ifndef CAPO_TRACE_HOT_METRICS_HH
#define CAPO_TRACE_HOT_METRICS_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace capo::trace::hot {

/**
 * The hot histogram set: M(EnumName, "dotted.name", bucket bounds...).
 * A sample lands in the first bucket whose bound is >= the value; one
 * implicit overflow bucket catches everything beyond the last bound.
 * Bounds are in the metric's natural unit (ns for durations, counts
 * for depths/distances).
 */
#define CAPO_APPLY_TO_HOT_HISTOGRAMS(M)                                    \
    M(TimerQueueDepth, "sim.timer.queue_depth",                            \
      1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)                   \
    M(DispatchBurst, "sim.engine.dispatch_burst",                          \
      1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 8192, 65536)                 \
    M(CellSetupNs, "harness.cell.setup_ns",                                \
      1e3, 1e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 5e7, 1e8, 1e9)     \
    M(PoolStealScan, "exec.pool.steal_scan",                               \
      1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)                            \
    M(AllocStallNs, "runtime.alloc.stall_ns",                              \
      1e3, 1e4, 1e5, 1e6, 5e6, 1e7, 5e7, 1e8, 5e8, 1e9, 5e9, 1e10)        \
    M(GcPauseNs, "gc.pause.wall_ns",                                       \
      1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 5e7, 1e8)

/** The hot counter set: M(EnumName, "dotted.name"). */
#define CAPO_APPLY_TO_HOT_COUNTERS(M)                                      \
    M(SimEvents, "sim.engine.events")                                      \
    M(TimerOps, "sim.timer.ops")                                           \
    M(InvocationsCompleted, "harness.invocations")                         \
    M(SweepCellsCompleted, "harness.sweep_cells")                          \
    M(PoolSteals, "exec.pool.steals")                                      \
    M(AllocStalls, "runtime.alloc.stalls")                                 \
    M(GcPauses, "gc.pauses")

#define M(NAME, ...) NAME,
enum Histogram : std::size_t { CAPO_APPLY_TO_HOT_HISTOGRAMS(M) };
enum Counter : std::size_t { CAPO_APPLY_TO_HOT_COUNTERS(M) };
#undef M

#define M(NAME, ...) +1
constexpr std::size_t kHistogramCount = 0 CAPO_APPLY_TO_HOT_HISTOGRAMS(M);
constexpr std::size_t kCounterCount = 0 CAPO_APPLY_TO_HOT_COUNTERS(M);
#undef M

namespace detail {

template <typename... Args>
constexpr std::size_t
vaCount(Args &&...)
{
    return sizeof...(Args);
}

/** Buckets per histogram: the declared bounds plus one overflow. */
#define M(NAME, DOTTED, ...) detail::vaCount(__VA_ARGS__) + 1,
constexpr std::array<std::size_t, kHistogramCount> kBucketCounts = {
    CAPO_APPLY_TO_HOT_HISTOGRAMS(M)};
#undef M

constexpr std::size_t
bucketOffset(std::size_t metric)
{
    std::size_t offset = 0;
    for (std::size_t i = 0; i < metric; ++i)
        offset += kBucketCounts[i];
    return offset;
}

constexpr std::size_t kTotalBuckets = bucketOffset(kHistogramCount);

/** All bucket bounds, flattened in metric order (overflow buckets
 *  carry no bound). */
#define M(NAME, DOTTED, ...) __VA_ARGS__,
constexpr std::array<double, kTotalBuckets - kHistogramCount>
    kAllBounds = {CAPO_APPLY_TO_HOT_HISTOGRAMS(M)};
#undef M

constexpr std::size_t
boundOffset(std::size_t metric)
{
    return bucketOffset(metric) - metric;  // overflow buckets unbounded
}

/** The one flat store: per-bucket hit counts, then per-metric sums
 *  (scaled-integer, see observe()), then the counters. */
struct Cells {
    std::array<std::atomic<std::uint64_t>, kTotalBuckets> buckets{};
    std::array<std::atomic<std::uint64_t>, kHistogramCount> counts{};
    std::array<std::atomic<std::uint64_t>, kHistogramCount> sums{};
    std::array<std::atomic<std::uint64_t>, kCounterCount> counters{};
};

Cells &cells();
extern std::atomic<bool> g_enabled;

/** Sums accumulate as integers (fetch_add, no CAS loop): values are
 *  scaled by 1024 and truncated, keeping ~0.1 % sum fidelity. */
constexpr double kSumScale = 1024.0;

} // namespace detail

/** Is the hot tier recording? (One relaxed load.) */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Flip recording on/off (perfbench's traced run, micro_trace,
 *  tests). */
void setEnabled(bool on);

/**
 * Record one sample. Lock-free and wait-free: a bounded constexpr
 * scan plus three relaxed fetch_adds. Negative samples clamp to 0.
 */
inline void
observe(Histogram metric, double value)
{
    if (!enabled())
        return;
    auto &cells = detail::cells();
    const std::size_t bounds = detail::kBucketCounts[metric] - 1;
    const double *bound = &detail::kAllBounds[detail::boundOffset(metric)];
    std::size_t index = 0;
    while (index < bounds && value > bound[index])
        ++index;
    cells.buckets[detail::bucketOffset(metric) + index].fetch_add(
        1, std::memory_order_relaxed);
    cells.counts[metric].fetch_add(1, std::memory_order_relaxed);
    const double clamped = value > 0.0 ? value : 0.0;
    cells.sums[metric].fetch_add(
        static_cast<std::uint64_t>(clamped * detail::kSumScale),
        std::memory_order_relaxed);
}

/** Bump a hot counter by @p delta (one relaxed fetch_add). */
inline void
count(Counter counter, std::uint64_t delta = 1)
{
    if (!enabled())
        return;
    detail::cells().counters[counter].fetch_add(
        delta, std::memory_order_relaxed);
}

namespace detail {

constexpr std::size_t
maxBucketCount()
{
    std::size_t most = 0;
    for (const std::size_t count : kBucketCounts)
        most = count > most ? count : most;
    return most;
}

constexpr std::size_t kMaxBucketCount = maxBucketCount();

} // namespace detail

/**
 * Per-run local accumulator for one hot histogram.
 *
 * observe() above is cheap but not free: three relaxed fetch_adds per
 * sample contend on shared cache lines when a single run records
 * hundreds of thousands of samples (a fig01 sweep makes ~half a
 * million alloc-stall observes). An accumulator buckets samples into
 * plain non-atomic locals and lands the whole run with one fetch_add
 * per touched cell at flush() — bucket selection, count and the
 * per-sample kSumScale truncation are identical, so a flushed run is
 * cell-for-cell equal to the per-sample observes it replaces.
 *
 * Flush contract (DESIGN.md §14): the owner flushes at cell end — the
 * mutator's destructor, the pause protocol at collector shutdown and
 * re-attach. Samples are invisible to snapshot() until flushed; the
 * hot tier is observational and read at quiescence, so that window is
 * acceptable. Not thread-safe: one accumulator belongs to one agent.
 */
class HistogramAccumulator
{
  public:
    explicit HistogramAccumulator(Histogram metric) : metric_(metric) {}

    /** Record one sample locally (same gate as hot::observe). */
    void
    observe(double value)
    {
        if (!enabled())
            return;
        const std::size_t bounds = detail::kBucketCounts[metric_] - 1;
        const double *bound =
            &detail::kAllBounds[detail::boundOffset(metric_)];
        std::size_t index = 0;
        while (index < bounds && value > bound[index])
            ++index;
        ++buckets_[index];
        ++count_;
        const double clamped = value > 0.0 ? value : 0.0;
        pending_sum_ +=
            static_cast<std::uint64_t>(clamped * detail::kSumScale);
    }

    /** Land the accumulated samples in the shared cells and clear. */
    void
    flush()
    {
        if (count_ == 0)
            return;
        auto &cells = detail::cells();
        const std::size_t base = detail::bucketOffset(metric_);
        const std::size_t buckets = detail::kBucketCounts[metric_];
        for (std::size_t i = 0; i < buckets; ++i) {
            if (buckets_[i] > 0) {
                cells.buckets[base + i].fetch_add(
                    buckets_[i], std::memory_order_relaxed);
                buckets_[i] = 0;
            }
        }
        cells.counts[metric_].fetch_add(count_,
                                        std::memory_order_relaxed);
        cells.sums[metric_].fetch_add(pending_sum_,
                                      std::memory_order_relaxed);
        count_ = 0;
        pending_sum_ = 0;
    }

  private:
    Histogram metric_;
    std::uint64_t count_ = 0;
    std::uint64_t pending_sum_ = 0;  ///< kSumScale-scaled integral sum.
    std::array<std::uint64_t, detail::kMaxBucketCount> buckets_{};
};

/** Per-run local accumulator for one hot counter (same contract as
 *  HistogramAccumulator: gate at add(), one fetch_add at flush()). */
class CounterAccumulator
{
  public:
    explicit CounterAccumulator(Counter counter) : counter_(counter) {}

    void
    add(std::uint64_t delta = 1)
    {
        if (enabled())
            pending_ += delta;
    }

    void
    flush()
    {
        if (pending_ == 0)
            return;
        detail::cells().counters[counter_].fetch_add(
            pending_, std::memory_order_relaxed);
        pending_ = 0;
    }

  private:
    Counter counter_;
    std::uint64_t pending_ = 0;
};

/** Printable dotted name of a histogram / counter. */
const char *histogramName(Histogram metric);
const char *counterName(Counter counter);

/** A quiescent copy of one histogram's cells. */
struct HistogramSnapshot
{
    const char *name = "";
    std::uint64_t count = 0;
    double sum = 0.0;
    std::vector<double> bounds;          ///< Upper bounds (no overflow).
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 cells.

    double mean() const { return count > 0 ? sum / count : 0.0; }
};

/** A quiescent copy of the whole hot tier. */
struct Snapshot
{
    std::array<std::uint64_t, kCounterCount> counters{};
    std::vector<HistogramSnapshot> histograms;

    std::uint64_t counter(Counter c) const { return counters[c]; }
    const HistogramSnapshot &histogram(Histogram m) const
    {
        return histograms[m];
    }

    /** Cell-wise difference (this - earlier): monotone counters make
     *  before/after snapshots a windowed measurement. */
    Snapshot since(const Snapshot &earlier) const;
};

/**
 * Copy every cell out (relaxed loads). Cross-cell consistency is only
 * exact at quiescence; concurrent recording skews counts by at most
 * the in-flight records.
 */
Snapshot snapshot();

/** Zero every cell. Callers must guarantee no concurrent recording. */
void reset();

} // namespace capo::trace::hot

#endif // CAPO_TRACE_HOT_METRICS_HH
