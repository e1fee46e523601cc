#include "runtime/mutator.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace capo::runtime {

MutatorGroup::MutatorGroup(const MutatorPlan &plan, Allocator &allocator,
                           heap::HeapSpace &heap, GcEventLog &log,
                           support::Rng rng)
    : plan_(plan), allocator_(allocator), heap_(heap), log_(log), rng_(rng)
{
    CAPO_ASSERT(plan.iterations > 0, "need at least one iteration");
    CAPO_ASSERT(plan.work_per_iteration > 0.0, "iteration work must be > 0");
    CAPO_ASSERT(plan.alloc_per_iteration >= 0.0, "negative allocation");
    CAPO_ASSERT(plan.width > 0.0, "mutator width must be > 0");
    CAPO_ASSERT(plan.min_chunks >= 1 &&
                plan.max_chunks >= plan.min_chunks,
                "bad chunk bounds");
}

void
MutatorGroup::attach(sim::Engine &engine, World &world)
{
    id_ = engine.addAgent(this);
    world.addMutator(id_);
}

void
MutatorGroup::setShutdownHook(std::function<void()> hook)
{
    shutdown_hook_ = std::move(hook);
}

void
MutatorGroup::attachTrace(trace::TraceSink *sink, trace::TrackId track)
{
    sink_ = sink;
    track_ = track;
}

void
MutatorGroup::setFaultInjector(fault::FaultInjector *injector)
{
    fault_ = injector;
}

void
MutatorGroup::beginIteration(sim::Engine &engine)
{
    IterationRecord rec;
    rec.wall_begin = engine.now();
    rec.cpu_begin = engine.totalCpuTime();
    iterations_.push_back(rec);
    // The last planned iteration is the timed one. Only the mutator
    // opens and closes it, and it is frozen in every pause, so no
    // pause straddles the window.
    if (iteration_ == plan_.iterations - 1)
        log_.openTimedWindow();

    if (sink_) {
        sink_->beginSpan(track_, trace::Category::Runtime, "iteration",
                         rec.wall_begin);
    }

    // Warmup multiplier: the last entry repeats.
    iteration_multiplier_ = 1.0;
    if (!plan_.warmup_multipliers.empty()) {
        const auto idx = std::min<std::size_t>(
            iteration_, plan_.warmup_multipliers.size() - 1);
        iteration_multiplier_ = plan_.warmup_multipliers[idx];
    }
    if (plan_.noise_stddev > 0.0) {
        iteration_multiplier_ *= std::max(
            0.05, rng_.gaussian(1.0, plan_.noise_stddev));
    }

    // Chunk granularity: allocations must be fine enough that several
    // chunks fit in the post-GC headroom (so collection triggers fire
    // at realistic points), but coarse enough to keep event counts in
    // check for high-allocation-rate workloads. Headroom is judged
    // against the *peak* live set so chunks stay feasible after the
    // live set builds up.
    const double headroom = std::max(
        heap_.capacity() * 0.02,
        (heap_.capacity() - heap_.peakLive(plan_.iterations)) / 4.0);
    int chunks = plan_.min_chunks;
    if (plan_.alloc_per_iteration > 0.0 && headroom > 0.0) {
        chunks = static_cast<int>(
            std::ceil(plan_.alloc_per_iteration / headroom));
    }
    chunks_this_iteration_ =
        std::clamp(chunks, plan_.min_chunks, plan_.max_chunks);
    chunk_alloc_ = plan_.alloc_per_iteration / chunks_this_iteration_;
    chunk_ = 0;
}

void
MutatorGroup::endIteration(sim::Engine &engine)
{
    auto &rec = iterations_.back();
    rec.wall_end = engine.now();
    rec.cpu_end = engine.totalCpuTime();
    if (iteration_ == plan_.iterations - 1)
        log_.closeTimedWindow();
    if (sink_) {
        sink_->endSpan(track_, trace::Category::Runtime, "iteration",
                       rec.wall_end);
    }
}

double
MutatorGroup::chunkWork() const
{
    return plan_.work_per_iteration * iteration_multiplier_ /
           chunks_this_iteration_;
}

sim::Action
MutatorGroup::resume(sim::Engine &engine)
{
    while (true) {
        switch (phase_) {
          case Phase::Start:
            beginIteration(engine);
            phase_ = Phase::Allocate;
            continue;

          case Phase::Allocate: {
            auto response = allocator_.request(chunk_alloc_);
            // Injected OOM kill: a granted allocation is converted to
            // an out-of-memory verdict, exercising the abort path on
            // configurations that would otherwise succeed.
            if (response.verdict == AllocVerdict::Granted &&
                fault_ != nullptr &&
                fault_->fire(fault::Site::AllocOom, engine.now())) {
                response = AllocResponse::oom();
            }
            switch (response.verdict) {
              case AllocVerdict::Granted:
                if (stall_begin_ >= 0.0) {
                    log_.recordStall(stall_begin_, engine.now());
                    if (sink_) {
                        sink_->endSpan(track_, trace::Category::Runtime,
                                       "alloc-stall", engine.now());
                    }
                    stall_begin_ = -1.0;
                    ++stalls_;
                }
                // Injected stall overrun: the grant succeeds but the
                // mutator pays a pathological stall first (page-fault
                // storm, pacing overrun). The run completes; only its
                // timing degrades.
                if (fault_ != nullptr &&
                    fault_->fire(fault::Site::AllocStall,
                                 engine.now())) {
                    fault_stall_until_ =
                        engine.now() + fault_->stallOverrunNs();
                    log_.recordStall(engine.now(), fault_stall_until_);
                    if (sink_) {
                        sink_->beginSpan(track_,
                                         trace::Category::Runtime,
                                         "alloc-stall", engine.now());
                    }
                    phase_ = Phase::FaultStall;
                    return sim::Action::sleepUntil(fault_stall_until_);
                }
                phase_ = Phase::Computed;
                return sim::Action::compute(chunkWork(), plan_.width);

              case AllocVerdict::Stall:
                if (stall_begin_ < 0.0) {
                    stall_begin_ = engine.now();
                    if (sink_) {
                        sink_->beginSpan(track_, trace::Category::Runtime,
                                         "alloc-stall", stall_begin_);
                    }
                }
                return sim::Action::wait(response.wait_on);

              case AllocVerdict::Oom:
                oom_ = true;
                if (sink_ && stall_begin_ >= 0.0) {
                    sink_->endSpan(track_, trace::Category::Runtime,
                                   "alloc-stall", engine.now());
                    stall_begin_ = -1.0;
                }
                // Leave the current iteration record open-ended at the
                // failure point so diagnostics show where it died.
                endIteration(engine);
                phase_ = Phase::Done;
                if (shutdown_hook_)
                    shutdown_hook_();
                return sim::Action::exit();
            }
            CAPO_PANIC("unhandled allocation verdict");
          }

          case Phase::FaultStall:
            // Injected stall overrun elapsed; resume the chunk.
            ++stalls_;
            if (sink_) {
                sink_->endSpan(track_, trace::Category::Runtime,
                               "alloc-stall", engine.now());
            }
            phase_ = Phase::Computed;
            return sim::Action::compute(chunkWork(), plan_.width);

          case Phase::Computed: {
            // A chunk of work just finished.
            ++chunk_;
            const double progress =
                iteration_ + static_cast<double>(chunk_) /
                                 chunks_this_iteration_;
            heap_.setProgress(progress);
            if (chunk_ < chunks_this_iteration_) {
                phase_ = Phase::Allocate;
                continue;
            }
            endIteration(engine);
            ++iteration_;
            if (iteration_ < plan_.iterations) {
                phase_ = Phase::Start;
                continue;
            }
            done_ = true;
            phase_ = Phase::Done;
            if (shutdown_hook_)
                shutdown_hook_();
            return sim::Action::exit();
          }

          case Phase::Done:
            return sim::Action::exit();
        }
    }
}

} // namespace capo::runtime
