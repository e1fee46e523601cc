#include "sim/engine.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/logging.hh"
#include "trace/hot_metrics.hh"

namespace capo::sim {

namespace {

/// Upper bound on resume() dispatches between two time advances; a
/// livelocked agent (e.g.\ returning zero-work computes forever) trips
/// this rather than hanging the process.
constexpr std::uint64_t kMaxDispatchBurst = 8'000'000;

/// Lower clamp for speed factors, so paced agents keep making (slow)
/// progress instead of deadlocking the fluid model.
constexpr double kMinSpeed = 1e-6;

/// Span names on agent trace tracks (static storage: TraceEvent keeps
/// the pointer).
constexpr const char *kSpanRun = "run";
constexpr const char *kSpanWait = "wait";
constexpr const char *kSpanSleep = "sleep";

} // namespace

Engine::Engine(double cpus, support::CellArena *arena)
    : cpus_(cpus), agents_(arena), conds_(arena),
      timers_(support::ArenaAllocator<Timer>(arena)),
      timer_staging_(arena),
      pending_(support::ArenaAllocator<AgentId>(arena)),
      computing_(arena), trace_(arena)
{
    CAPO_ASSERT(cpus > 0.0, "engine needs positive CPU capacity");
}

AgentId
Engine::addAgent(Agent *agent)
{
    CAPO_ASSERT(agent != nullptr, "null agent");
    CAPO_ASSERT(!running_, "agents must be added before run()");
    agents_.push_back(AgentSlot{});
    agents_.back().agent = agent;
    ++live_agents_;
    return static_cast<AgentId>(agents_.size() - 1);
}

CondId
Engine::makeCondition(std::string name)
{
    conds_.push_back(Cond{std::move(name), {}});
    return static_cast<CondId>(conds_.size() - 1);
}

void
Engine::notifyAll(CondId cond)
{
    CAPO_ASSERT(cond < conds_.size(), "bad condition id");
    auto &waiters = conds_[cond].waiters;
    while (!waiters.empty())
        wake(waiters.pop());
}

void
Engine::notifyOne(CondId cond)
{
    CAPO_ASSERT(cond < conds_.size(), "bad condition id");
    auto &waiters = conds_[cond].waiters;
    if (!waiters.empty())
        wake(waiters.pop());
}

void
Engine::wake(AgentId id)
{
    auto &slot = agents_[id];
    if (slot.state == State::Finished)
        return;
    if (slot.frozen) {
        slot.state = State::Pending;
        slot.deferred_wake = true;
        return;
    }
    slot.state = State::Pending;
    pending_.push(id);
}

void
Engine::freeze(AgentId id)
{
    CAPO_ASSERT(id < agents_.size(), "bad agent id");
    auto &slot = agents_[id];
    if (!slot.frozen && slot.state == State::Computing) {
        // Credit the pre-freeze interval at the old rate, then stop
        // accruing: a frozen agent's rate is exactly zero until the
        // next rebuild after unfreeze.
        settle(slot);
        slot.rate = 0.0;
        rates_dirty_ = true;
    }
    if (!slot.frozen && slot.state != State::Finished)
        ++frozen_live_;
    if (sink_ && running_ && !slot.frozen &&
        slot.state != State::Finished) {
        sink_->instant(slot.track, trace::Category::Sim, "freeze", now_);
        // Split an in-flight run span so the frozen window reads as
        // not-running; unfreeze() reopens it.
        if (slot.open == OpenSpan::Compute) {
            sink_->endSpan(slot.track, trace::Category::Sim, kSpanRun,
                           now_);
            slot.open = OpenSpan::ComputeFrozen;
        } else if (slot.open == OpenSpan::ComputeEndPending) {
            traceClose(slot, kSpanRun);
        }
    }
    slot.frozen = true;
}

void
Engine::unfreeze(AgentId id)
{
    CAPO_ASSERT(id < agents_.size(), "bad agent id");
    auto &slot = agents_[id];
    if (!slot.frozen)
        return;
    slot.frozen = false;
    if (slot.state == State::Computing) {
        // Nothing accrued while frozen (rate was zero); progress
        // restarts from here once rebuildRates() assigns the share.
        slot.credit_mark = now_;
        rates_dirty_ = true;
    }
    if (slot.state != State::Finished) {
        CAPO_ASSERT(frozen_live_ > 0, "frozen bookkeeping underflow");
        --frozen_live_;
    }
    if (sink_ && running_ && slot.state != State::Finished) {
        sink_->instant(slot.track, trace::Category::Sim, "unfreeze",
                       now_);
        if (slot.open == OpenSpan::ComputeFrozen)
            traceOpen(slot, OpenSpan::Compute, kSpanRun);
    }
    if (slot.deferred_wake) {
        slot.deferred_wake = false;
        // A staged fused compute whose timer fired during the freeze
        // starts now — the same timestamp its deferred dispatch would
        // have been delivered at on the unfused path.
        if (slot.staged && slot.state == State::Sleeping)
            startStagedCompute(id);
        else
            pending_.push(id);
    }
}

void
Engine::freezeAll(const AgentId *ids, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        freeze(ids[i]);
}

void
Engine::unfreezeAll(const AgentId *ids, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        unfreeze(ids[i]);
}

void
Engine::setSpeedFactor(AgentId id, double factor)
{
    CAPO_ASSERT(id < agents_.size(), "bad agent id");
    CAPO_ASSERT(factor <= 1.0 && factor >= 0.0,
                "speed factor must be in [0, 1], got ", factor);
    auto &slot = agents_[id];
    const double clamped = std::max(factor, kMinSpeed);
    // Early-out: pacing collectors re-assert the current factor on
    // every allocation grant; an unchanged speed must not invalidate
    // the incremental rate state.
    if (slot.speed == clamped)
        return;
    if (slot.state == State::Computing && !slot.frozen) {
        settle(slot);
        rates_dirty_ = true;
    }
    slot.speed = clamped;
}

void
Engine::tracePerWidthRate(AgentId id)
{
    CAPO_ASSERT(id < agents_.size(), "bad agent id");
    CAPO_ASSERT(traced_ == kInvalidAgent || traced_ == id,
                "only one agent may be traced per engine");
    traced_ = id;
}

void
Engine::setTraceSink(trace::TraceSink *sink)
{
    CAPO_ASSERT(!running_, "trace sink must be set before run()");
    sink_ = sink;
}

std::size_t
Engine::runnableAgents() const
{
    std::size_t n = 0;
    for (const auto &slot : agents_) {
        if (!slot.frozen &&
            (slot.state == State::Computing ||
             slot.state == State::Pending))
            ++n;
    }
    return n;
}

void
Engine::traceOpen(AgentSlot &slot, OpenSpan kind, const char *name)
{
    if (!sink_)
        return;
    sink_->beginSpan(slot.track, trace::Category::Sim, name, now_);
    slot.open = kind;
}

void
Engine::traceClose(AgentSlot &slot, const char *name)
{
    if (!sink_)
        return;
    sink_->endSpan(slot.track, trace::Category::Sim, name, now_);
    slot.open = OpenSpan::None;
}

void
Engine::flushComputeEnd(AgentSlot &slot)
{
    if (slot.open == OpenSpan::ComputeEndPending)
        traceClose(slot, kSpanRun);
}

void
Engine::closeOpenSpans()
{
    if (!sink_)
        return;
    for (auto &slot : agents_) {
        switch (slot.open) {
          case OpenSpan::Compute:
          case OpenSpan::ComputeEndPending:
            traceClose(slot, kSpanRun);
            break;
          case OpenSpan::Wait:
            traceClose(slot, kSpanWait);
            break;
          case OpenSpan::Sleep:
            traceClose(slot, kSpanSleep);
            break;
          case OpenSpan::ComputeFrozen:  // run span already ended
          case OpenSpan::None:
            slot.open = OpenSpan::None;
            break;
        }
    }
}

bool
Engine::finished(AgentId id) const
{
    CAPO_ASSERT(id < agents_.size(), "bad agent id");
    return agents_[id].state == State::Finished;
}

bool
Engine::frozen(AgentId id) const
{
    CAPO_ASSERT(id < agents_.size(), "bad agent id");
    return agents_[id].frozen;
}

double
Engine::accruedCpu(const AgentSlot &slot) const
{
    // Un-settled accrual is a pure read: cpu_time is credited up to
    // credit_mark, and the rate (zero while frozen) has been constant
    // since. Settling later applies the identical expression, so
    // queries and settles agree bit-for-bit.
    if (slot.state == State::Computing)
        return slot.cpu_time + slot.rate * (now_ - slot.credit_mark);
    return slot.cpu_time;
}

double
Engine::cpuTime(AgentId id) const
{
    CAPO_ASSERT(id < agents_.size(), "bad agent id");
    return accruedCpu(agents_[id]);
}

double
Engine::totalCpuTime() const
{
    double total = 0.0;
    for (const auto &slot : agents_)
        total += accruedCpu(slot);
    return total;
}

const Engine::ArenaVec<RateSegment> &
Engine::rateTimeline() const
{
    return trace_;
}

void
Engine::settle(AgentSlot &slot)
{
    const Time dt = now_ - slot.credit_mark;
    if (dt > 0.0 && slot.rate > 0.0) {
        const double delta = slot.rate * dt;
        slot.remaining -= delta;
        slot.cpu_time += delta;
    }
    slot.credit_mark = now_;
}

void
Engine::rebuildRates()
{
    // Pass 1: settle at the outgoing rates and rebuild the demand sum
    // in id order. Transitions all happen at the current timestamp
    // (time only advances inside advance()), so the settle interval
    // is exactly the span the old rates governed.
    double total = 0.0;
    for (const AgentId id : computing_) {
        auto &slot = agents_[id];
        settle(slot);
        total += demand(slot);
    }
    share_ = total > cpus_ ? cpus_ / total : 1.0;

    // Pass 2: assign the new rates and cache the earliest completion.
    // While no further transition occurs, each completion time is
    // invariant, so advance() never needs to rescan.
    Time next = std::numeric_limits<Time>::infinity();
    for (const AgentId id : computing_) {
        auto &slot = agents_[id];
        const double rate = demand(slot) * share_;
        slot.rate = rate;
        if (rate > 0.0)
            next = std::min(next, now_ + slot.remaining / rate);
    }
    next_completion_ = next;

    if (traced_ != kInvalidAgent) {
        const auto &slot = agents_[traced_];
        traced_rate_ =
            (slot.state == State::Computing && !slot.frozen)
                ? share_ * slot.speed
                : 0.0;
    }
    rates_dirty_ = false;
}

double
Engine::demand(const AgentSlot &slot) const
{
    if (slot.state != State::Computing || slot.frozen)
        return 0.0;
    return slot.width * slot.speed;
}

void
Engine::apply(AgentId id, const Action &action)
{
    auto &slot = agents_[id];
    switch (action.kind) {
      case Action::Kind::Compute:
        CAPO_ASSERT(action.work >= 0.0, "negative compute work from ",
                    slot.agent->name());
        CAPO_ASSERT(action.width > 0.0, "non-positive compute width from ",
                    slot.agent->name());
        if (action.work <= 0.0) {
            // Zero work completes instantly; requeue for dispatch.
            slot.state = State::Pending;
            pending_.push(id);
            return;
        }
        // Coalesce back-to-back computes into one run span: a chunked
        // mutator dispatches thousands of computes at identical
        // timestamps, which would otherwise flood the trace.
        if (slot.open == OpenSpan::ComputeEndPending)
            slot.open = OpenSpan::Compute;
        else
            traceOpen(slot, OpenSpan::Compute, kSpanRun);
        slot.state = State::Computing;
        slot.remaining = action.work;
        slot.width = action.width;
        slot.rate = 0.0;  // no progress until rebuildRates() runs
        slot.credit_mark = now_;
        // Sorted insert keeps the id order the floating-point sums
        // depend on; the set is small (a handful of runnable agents),
        // so this beats re-sorting per event by a wide margin.
        computing_.insert(
            std::lower_bound(computing_.begin(), computing_.end(), id),
            id);
        rates_dirty_ = true;
        return;

      case Action::Kind::SleepUntil:
        flushComputeEnd(slot);
        traceOpen(slot, OpenSpan::Sleep, kSpanSleep);
        slot.staged = false;
        stageSleep(slot, id, action.until);
        return;

      case Action::Kind::SleepThenCompute:
        CAPO_ASSERT(action.work >= 0.0, "negative staged work from ",
                    slot.agent->name());
        CAPO_ASSERT(action.width > 0.0, "non-positive staged width from ",
                    slot.agent->name());
        flushComputeEnd(slot);
        traceOpen(slot, OpenSpan::Sleep, kSpanSleep);
        slot.staged = true;
        slot.staged_work = action.work;
        slot.staged_width = action.width;
        stageSleep(slot, id, action.until);
        return;

      case Action::Kind::Wait:
        CAPO_ASSERT(action.cond < conds_.size(),
                    "wait on bad condition from ", slot.agent->name());
        flushComputeEnd(slot);
        traceOpen(slot, OpenSpan::Wait, kSpanWait);
        slot.state = State::Waiting;
        conds_[action.cond].waiters.push(id);
        return;

      case Action::Kind::Exit:
        flushComputeEnd(slot);
        slot.state = State::Finished;
        CAPO_ASSERT(live_agents_ > 0, "agent exited twice");
        --live_agents_;
        return;
    }
    CAPO_PANIC("unhandled action kind");
}

void
Engine::stageSleep(AgentSlot &slot, AgentId id, Time until)
{
    Time requested = until;
    // Injected timer perturbation: a deterministic jitter on the
    // due time, modelling noisy timers / late wakeups. The jitter
    // stream depends only on the injector's seed and consultation
    // order, which is serial within one simulation.
    if (fault_ != nullptr)
        requested += fault_->timerJitter(now_);
    const Time due = std::max(requested, now_);
    slot.state = State::Sleeping;
    slot.sleep_token = ++timer_seq_;
    trace::hot::count(trace::hot::TimerOps);
    // Staged, not pushed: drainPending() bulk-inserts the whole
    // burst in one heap operation. Due times only matter to the
    // next advance(), which runs after the drain flushes.
    timer_staging_.push_back(Timer{due, timer_seq_, id, slot.sleep_token});
}

void
Engine::startStagedCompute(AgentId id)
{
    auto &slot = agents_[id];
    if (slot.frozen) {
        // Deliver at unfreeze, like any timer wake that lands in a
        // stop-the-world window (see unfreeze()).
        slot.deferred_wake = true;
        return;
    }
    slot.staged = false;
    // The fused transition is a delivered engine event: counting it
    // keeps dispatchCount() — and the events/s throughput metric —
    // comparable with the sleep-dispatch-compute pair it replaces.
    ++dispatches_;
    if (slot.open == OpenSpan::Sleep)
        traceClose(slot, kSpanSleep);
    if (slot.staged_work <= 0.0) {
        // Zero work completes instantly; fall back to a dispatch so
        // the agent sees the same "compute finished" resume().
        slot.state = State::Pending;
        pending_.push(id);
        return;
    }
    traceOpen(slot, OpenSpan::Compute, kSpanRun);
    slot.state = State::Computing;
    slot.remaining = slot.staged_work;
    slot.width = slot.staged_width;
    slot.rate = 0.0;  // no progress until rebuildRates() runs
    slot.credit_mark = now_;
    computing_.insert(
        std::lower_bound(computing_.begin(), computing_.end(), id), id);
    rates_dirty_ = true;
}

void
Engine::drainPending()
{
    std::uint64_t burst = 0;
    while (!pending_.empty()) {
        const AgentId id = pending_.pop();
        auto &slot = agents_[id];
        if (slot.state != State::Pending)
            continue;  // superseded (e.g.\ exited via another path)
        if (slot.frozen) {
            slot.deferred_wake = true;
            continue;
        }
        if (++burst > kMaxDispatchBurst) {
            CAPO_PANIC("dispatch livelock: agent ", slot.agent->name(),
                       " at t=", now_, " ns");
        }
        ++dispatches_;
        // A dispatch out of wait/sleep ends that span; the action the
        // agent returns decides what (if anything) opens next.
        if (slot.open == OpenSpan::Wait)
            traceClose(slot, kSpanWait);
        else if (slot.open == OpenSpan::Sleep)
            traceClose(slot, kSpanSleep);
        current_ = id;
        const Action action = slot.agent->resume(*this);
        current_ = kInvalidAgent;
        apply(id, action);
    }
    if (!timer_staging_.empty()) {
        timers_.pushBulk(timer_staging_.begin(), timer_staging_.end());
        timer_staging_.clear();
    }
}

Engine::AdvanceResult
Engine::advance(Time limit)
{
    // Incremental fluid model: shares, per-agent rates and the
    // earliest completion time are cached and only recomputed after a
    // demand transition. The common timer-only event therefore costs
    // O(1); a transition costs one O(computing) rebuild regardless of
    // how many transitions the last drain performed.
    if (rates_dirty_)
        rebuildRates();

    // Earliest live timer (skip stale entries).
    Time next_timer = std::numeric_limits<Time>::infinity();
    while (!timers_.empty()) {
        const Timer &top = timers_.top();
        const auto &slot = agents_[top.agent];
        if (slot.state == State::Sleeping && slot.sleep_token == top.token) {
            next_timer = top.due;
            break;
        }
        timers_.pop();
    }

    const bool completion_due = next_completion_ <= next_timer;
    Time next_event = completion_due ? next_completion_ : next_timer;
    if (std::isinf(next_event))
        return AdvanceResult::Stalled;

    bool hit_limit = false;
    if (limit >= 0.0 && next_event > limit) {
        next_event = limit;
        hit_limit = true;
    }

    const Time dt = next_event - now_;
    CAPO_ASSERT(dt >= 0.0, "time went backwards");

    // Record the traced agent's per-width progress rate.
    if (traced_ != kInvalidAgent && dt > 0.0) {
        if (!trace_.empty() && trace_.back().rate == traced_rate_ &&
            trace_.back().end == now_) {
            trace_.back().end = next_event;
        } else {
            trace_.push_back(RateSegment{now_, next_event, traced_rate_});
        }
    }

    if (frozen_live_ > 0)
        frozen_wall_ += dt;

    now_ = next_event;

    if (hit_limit)
        return AdvanceResult::HitLimit;

    if (completion_due) {
        // Fire compute completions: settle everyone at the cached
        // rates (id order), then test the same thresholds the eager
        // loop used. The minimum-dt agent lands on (or within
        // rounding of) zero; the threshold must also cover residue
        // below the representable resolution of now_ (ulp ~= now_ *
        // 2^-52), otherwise time could stop advancing; now_ * 1e-12
        // dominates that comfortably.
        const double time_eps = std::max(1e-9, now_ * 1e-12);
        std::size_t keep = 0;
        for (std::size_t i = 0; i < computing_.size(); ++i) {
            const AgentId id = computing_[i];
            auto &slot = agents_[id];
            settle(slot);
            if (!slot.frozen &&
                (slot.remaining <= 1e-6 ||
                 (slot.rate > 0.0 &&
                  slot.remaining <= slot.rate * time_eps))) {
                slot.remaining = 0.0;
                slot.state = State::Pending;
                // Defer the run-span end: if the agent immediately
                // computes again the span coalesces (see apply()).
                if (slot.open == OpenSpan::Compute)
                    slot.open = OpenSpan::ComputeEndPending;
                pending_.push(id);
            } else {
                computing_[keep++] = id;  // order preserved
            }
        }
        computing_.resize(keep);
        rates_dirty_ = true;
    }

    // Fire due timers. A fused sleepThenCompute transitions straight
    // into Computing here; plain sleeps queue a resume() dispatch.
    while (!timers_.empty() && timers_.top().due <= now_) {
        const Timer top = timers_.top();
        timers_.pop();
        auto &slot = agents_[top.agent];
        if (slot.state != State::Sleeping || slot.sleep_token != top.token)
            continue;
        if (slot.staged)
            startStagedCompute(top.agent);
        else
            wake(top.agent);
    }

    return AdvanceResult::Progress;
}

Engine::StopReason
Engine::run(Time until)
{
    if (sink_ && !running_) {
        // One trace track per agent, named "<agent>#<id>" so multiple
        // instances of one agent type stay distinguishable.
        for (AgentId id = 0; id < agents_.size(); ++id) {
            auto &slot = agents_[id];
            slot.track = sink_->registerTrack(
                std::string(slot.agent->name()) + "#" +
                std::to_string(id));
        }
    }
    running_ = true;
    // Batched reserve: one allocation per structure up front instead
    // of growth churn while the first events pour in.
    pending_.reserve(agents_.size() + 8);
    computing_.reserve(agents_.size());
    timers_.reserve(4 * agents_.size() + 16);
    timer_staging_.reserve(agents_.size() + 8);
    // While the simulation runs, log output carries sim timestamps.
    support::ScopedSimTimeHook time_hook([this] { return now_; });
    for (AgentId id = 0; id < agents_.size(); ++id) {
        if (agents_[id].state == State::Created) {
            agents_[id].state = State::Pending;
            pending_.push(id);
        }
    }
    drainPending();
    StopReason reason = StopReason::AllExited;
    while (live_agents_ > 0) {
        const AdvanceResult result = advance(until);
        if (result == AdvanceResult::Stalled) {
            reason = StopReason::Stalled;
            break;
        }
        if (result == AdvanceResult::HitLimit) {
            reason = StopReason::TimeLimit;
            break;
        }
        drainPending();
    }
    closeOpenSpans();
    return reason;
}

} // namespace capo::sim
