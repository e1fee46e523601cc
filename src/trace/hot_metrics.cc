#include "trace/hot_metrics.hh"

#include "support/logging.hh"

namespace capo::trace::hot {

namespace detail {

std::array<std::atomic<std::uint64_t>, kCounterCount> &
counters()
{
    // Function-local so the store is constructed before first use even
    // from static initializers (experiment registrations run early).
    static std::array<std::atomic<std::uint64_t>, kCounterCount> instance{};
    return instance;
}

std::atomic<bool> g_enabled{false};

} // namespace detail

void
setEnabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

namespace {

#define M(NAME, DOTTED) DOTTED,
constexpr const char *kCounterNames[kCounterCount] = {
    CAPO_APPLY_TO_HOT_COUNTERS(M)};
#undef M

} // namespace

const char *
counterName(Counter counter)
{
    CAPO_ASSERT(counter < kCounterCount, "bad hot counter id");
    return kCounterNames[counter];
}

Snapshot
Snapshot::since(const Snapshot &earlier) const
{
    Snapshot out = *this;
    for (std::size_t i = 0; i < kCounterCount; ++i)
        out.counters[i] -= earlier.counters[i];
    return out;
}

Snapshot
snapshot()
{
    Snapshot out;
    for (std::size_t i = 0; i < kCounterCount; ++i)
        out.counters[i] =
            detail::counters()[i].load(std::memory_order_relaxed);
    return out;
}

void
reset()
{
    for (auto &counter : detail::counters())
        counter.store(0, std::memory_order_relaxed);
}

} // namespace capo::trace::hot
