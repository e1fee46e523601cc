#include "exec/pool.hh"

#include <cstdlib>

#include "support/logging.hh"

namespace capo::exec {

namespace {

thread_local Pool *current_pool = nullptr;
thread_local std::size_t current_worker = 0;

} // namespace

Pool::Pool(std::size_t workers)
{
    CAPO_ASSERT(workers >= 1, "pool needs at least one worker");
    deques_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        deques_.push_back(std::make_unique<Deque>());
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

Pool::~Pool()
{
    {
        std::lock_guard<std::mutex> lock(idle_mutex_);
        stopping_ = true;
    }
    idle_cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
Pool::armWorkerDeath(const fault::FaultPlan &plan)
{
    CAPO_ASSERT(!death_armed_.load(std::memory_order_relaxed),
                "worker death already armed");
    reapers_.reserve(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        // Each worker draws from its own stream keyed by worker index,
        // so death schedules do not depend on task interleaving.
        reapers_.push_back(std::make_unique<fault::FaultInjector>(
            plan, static_cast<std::uint64_t>(i)));
    }
    death_armed_.store(true, std::memory_order_release);
}

void
Pool::submit(Task task)
{
    std::size_t target;
    if (current_pool == this) {
        target = current_worker;
    } else {
        std::lock_guard<std::mutex> lock(idle_mutex_);
        target = next_deque_++ % deques_.size();
    }
    {
        std::lock_guard<std::mutex> lock(deques_[target]->mutex);
        if (current_pool == this)
            deques_[target]->tasks.push_back(std::move(task));
        else
            deques_[target]->tasks.push_front(std::move(task));
    }
    {
        std::lock_guard<std::mutex> lock(idle_mutex_);
        ++pending_;
    }
    idle_cv_.notify_one();
}

bool
Pool::take(std::size_t self, Task &task)
{
    // Own deque first (back: most recently pushed, cache-warm)...
    {
        auto &dq = *deques_[self];
        std::lock_guard<std::mutex> lock(dq.mutex);
        if (!dq.tasks.empty()) {
            task = std::move(dq.tasks.back());
            dq.tasks.pop_back();
            return true;
        }
    }
    // ...then steal from peers (front: oldest, largest-grained work).
    for (std::size_t i = 1; i < deques_.size(); ++i) {
        auto &dq = *deques_[(self + i) % deques_.size()];
        std::lock_guard<std::mutex> lock(dq.mutex);
        if (!dq.tasks.empty()) {
            task = std::move(dq.tasks.front());
            dq.tasks.pop_front();
            return true;
        }
    }
    return false;
}

void
Pool::workerLoop(std::size_t index)
{
    current_pool = this;
    current_worker = index;
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(idle_mutex_);
            idle_cv_.wait(lock,
                          [this] { return pending_ > 0 || stopping_; });
            if (pending_ == 0 && stopping_)
                return;
            // Optimistically claim one pending unit; if another worker
            // raced us to every deque, give the claim back and re-wait.
            --pending_;
        }
        if (!take(index, task)) {
            std::lock_guard<std::mutex> lock(idle_mutex_);
            ++pending_;
            continue;
        }
        task();
        // Injected worker death fires only between tasks: a claimed
        // task always completes, so no join can lose an index.
        if (death_armed_.load(std::memory_order_acquire) &&
            reapers_[index]->fire(fault::Site::WorkerDeath, 0.0)) {
            dead_workers_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
}

Pool &
Pool::shared()
{
    static Pool pool(defaultWorkers());
    return pool;
}

std::size_t
Pool::defaultWorkers()
{
    if (const char *env = std::getenv("CAPO_JOBS")) {
        const long jobs = std::strtol(env, nullptr, 10);
        if (jobs >= 1)
            return static_cast<std::size_t>(jobs);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 1;
}

std::size_t
resolveJobs(int jobs)
{
    if (jobs >= 1)
        return static_cast<std::size_t>(jobs);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

} // namespace capo::exec
