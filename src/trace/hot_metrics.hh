/**
 * @file
 * Lock-free counters for the simulation/execution hot paths.
 *
 * The general MetricsRegistry (trace/metrics_registry.hh) resolves
 * metric *names* under a mutex — fine for a periodic sampler, far too
 * heavy for code that runs millions of times per second across every
 * pool worker. This module is the hot tier: a fixed, compile-time set
 * of counters (the ClickHouse `ProfileEvents` idiom) stored as one
 * flat array of relaxed atomics. A bump is one relaxed load of the
 * enable flag and one `fetch_add` — no mutex, no CAS loop, no
 * allocation, ever.
 *
 * Determinism contract: hot counters are *observational only*. They
 * are bumped from concurrently executing workers and read at
 * quiescence (snapshot()); nothing on any result path may read them,
 * so their cross-thread interleaving can never perturb experiment
 * output.
 *
 * Disabled behaviour: the gate is off by default, and only measuring
 * programs turn it on (perfbench's traced run, bench/micro_trace.cc,
 * the tests). Off, count() costs a single relaxed load and branch —
 * cheap enough to leave compiled into every hot loop unconditionally
 * (bench/micro_trace.cc holds the proof).
 */

#ifndef CAPO_TRACE_HOT_METRICS_HH
#define CAPO_TRACE_HOT_METRICS_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace capo::trace::hot {

/** The hot counter set: M(EnumName, "dotted.name"). */
#define CAPO_APPLY_TO_HOT_COUNTERS(M)                                      \
    M(TimerOps, "sim.timer.ops")                                           \
    M(InvocationsCompleted, "harness.invocations")                         \
    M(GcPauses, "gc.pauses")

#define M(NAME, ...) NAME,
enum Counter : std::size_t { CAPO_APPLY_TO_HOT_COUNTERS(M) };
#undef M

#define M(NAME, ...) +1
constexpr std::size_t kCounterCount = 0 CAPO_APPLY_TO_HOT_COUNTERS(M);
#undef M

namespace detail {

std::array<std::atomic<std::uint64_t>, kCounterCount> &counters();
extern std::atomic<bool> g_enabled;

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

/** Bump a hot counter by @p delta (one relaxed fetch_add). */
inline void
count(Counter counter, std::uint64_t delta = 1)
{
    if (!enabled())
        return;
    detail::counters()[counter].fetch_add(delta,
                                          std::memory_order_relaxed);
}

/** Printable dotted name of a counter. */
const char *counterName(Counter counter);

/** A quiescent copy of the whole hot tier. */
struct Snapshot
{
    std::array<std::uint64_t, kCounterCount> counters{};

    std::uint64_t counter(Counter c) const { return counters[c]; }

    /** Counter-wise difference (this - earlier): monotone counters
     *  make before/after snapshots a windowed measurement. */
    Snapshot since(const Snapshot &earlier) const;
};

/**
 * Copy every counter out (relaxed loads). Cross-counter consistency is
 * only exact at quiescence; concurrent recording skews counts by at
 * most the in-flight bumps.
 */
Snapshot snapshot();

/** Zero every counter. Callers must guarantee no concurrent
 *  recording. */
void reset();

} // namespace capo::trace::hot

#endif // CAPO_TRACE_HOT_METRICS_HH
