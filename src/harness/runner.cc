#include "harness/runner.hh"

#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "exec/parallel_for.hh"
#include "exec/seed.hh"
#include "runtime/worker_context.hh"
#include "support/logging.hh"
#include "trace/hot_metrics.hh"

namespace capo::harness {

namespace {

constexpr double kMb = 1024.0 * 1024.0;

/** Append the raw bits of @p v to @p key (bit-exact: distinct NaNs
 *  and -0.0 stay distinct, which is stricter than operator==). */
template <typename T>
void
appendBits(std::string &key, T v)
{
    char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    key.append(raw, sizeof(T));
}

/**
 * Memo key for makeSetup: every numeric input the setup (and its
 * warmup curve) is derived from, bit-packed next to the workload
 * name. Keying on values rather than descriptor identity keeps the
 * cache correct for tests that mutate registry copies in place.
 */
std::string
setupKey(const workloads::Descriptor &workload,
         const counters::MachineConfig &machine,
         workloads::SizeConfig size, int iterations)
{
    std::string key = workload.name;
    key.push_back('\0');
    appendBits(key, static_cast<int>(size));
    appendBits(key, iterations);
    appendBits(key, workloads::sizeMinHeapMb(workload, size));
    appendBits(key, workload.survivor_fraction);
    appendBits(key, workload.pointerFootprint());
    appendBits(key, workload.liveBytes());
    appendBits(key, workload.buildup_fraction);
    appendBits(key, workload.gc.glk_pct);
    appendBits(key, workload.gc.gmd_mb);
    appendBits(key, workload.effectiveParallelism());
    appendBits(key, workload.workPerIteration());
    appendBits(key, workload.allocPerIteration());
    appendBits(key, workload.perf.psd);
    appendBits(key, workload.perf.pwu);
    appendBits(key, workload.perf.pin);
    appendBits(key, workload.latency_sensitive);
    // The machine enters makeSetup only through these two pure
    // multipliers; folding their values in covers every machine knob.
    appendBits(key,
               counters::steadyWorkMultiplier(machine, workload));
    appendBits(key,
               counters::warmupExtraMultiplier(machine, workload));
    return key;
}

/**
 * Per-worker reuse caches (collectors and memoized setups). One per
 * thread, lock-free by construction; sweeps repeat the same few
 * (workload, collector) combinations hundreds of times per worker.
 */
struct WorkerCaches
{
    std::map<std::pair<int, std::uint64_t>,
             std::unique_ptr<runtime::CollectorRuntime>>
        collectors;
    std::map<std::string, workloads::RunSetup> setups;
};

thread_local std::unique_ptr<WorkerCaches> t_caches;

WorkerCaches &
workerCaches()
{
    if (t_caches == nullptr)
        t_caches = std::make_unique<WorkerCaches>();  // freed at thread exit
    return *t_caches;
}

const workloads::RunSetup &
cachedSetup(const workloads::Descriptor &workload,
            const counters::MachineConfig &machine,
            workloads::SizeConfig size, int iterations)
{
    auto &cache = workerCaches().setups;
    const auto key = setupKey(workload, machine, size, iterations);
    const auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    return cache
        .emplace(key,
                 workloads::makeSetup(workload, machine, size,
                                      iterations))
        .first->second;
}

runtime::CollectorRuntime &
cachedCollector(gc::Algorithm algorithm, double pointer_footprint)
{
    auto &cache = workerCaches().collectors;
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(pointer_footprint));
    std::memcpy(&bits, &pointer_footprint, sizeof(bits));
    const auto key =
        std::make_pair(static_cast<int>(algorithm), bits);
    const auto it = cache.find(key);
    if (it != cache.end())
        return *it->second;
    return *cache
                .emplace(key, gc::makeCollector(algorithm,
                                                pointer_footprint))
                .first->second;
}

} // namespace

void
clearWorkerCaches()
{
    if (t_caches != nullptr) {
        t_caches->collectors.clear();
        t_caches->setups.clear();
    }
    runtime::WorkerContext::resetForTest();
    trace::TraceSink::clearShardPool();
}

std::string
errorKind(const runtime::ExecutionResult &result)
{
    if (result.oom)
        return "oom";
    if (result.timed_out)
        return "timeout";
    return "failed";
}

bool
InvocationSet::allCompleted() const
{
    if (runs.empty())
        return false;
    for (const auto &r : runs) {
        if (!r.usable())
            return false;
    }
    return true;
}

metrics::RunCost
InvocationSet::meanTimedCost() const
{
    metrics::RunCost cost;
    std::size_t n = 0;
    for (const auto &r : runs) {
        if (!r.usable())
            continue;
        cost.wall += r.timed.wall;
        cost.cpu += r.timed.cpu;
        cost.stw_wall += r.timed.stw_wall;
        cost.stw_cpu += r.timed.stw_cpu;
        ++n;
    }
    CAPO_ASSERT(n > 0, "no completed invocations to average");
    cost.wall /= n;
    cost.cpu /= n;
    cost.stw_wall /= n;
    cost.stw_cpu /= n;
    return cost;
}

std::vector<double>
InvocationSet::timedWalls() const
{
    std::vector<double> out;
    for (const auto &r : runs) {
        if (r.usable())
            out.push_back(r.timed.wall);
    }
    return out;
}

std::vector<double>
InvocationSet::timedCpus() const
{
    std::vector<double> out;
    for (const auto &r : runs) {
        if (r.usable())
            out.push_back(r.timed.cpu);
    }
    return out;
}

Runner::Runner(const ExperimentOptions &options)
    : options_(options)
{
    CAPO_ASSERT(options.iterations >= 1, "need at least one iteration");
    CAPO_ASSERT(options.invocations >= 1,
                "need at least one invocation");
}

runtime::ExecutionResult
Runner::executeInvocation(const workloads::Descriptor &workload,
                          gc::Algorithm algorithm, double heap_mb,
                          int invocation, int attempt,
                          trace::TraceSink *shard,
                          runtime::LoadGenerator *load) const
{
    const auto &setup = cachedSetup(workload, options_.machine,
                                    options_.size,
                                    options_.iterations);
    auto &collector =
        cachedCollector(algorithm, setup.pointer_footprint);

    runtime::ExecutionConfig config;
    config.cpus = options_.machine.cpus;
    config.heap_bytes = heap_mb * kMb;
    config.survivor_fraction = setup.survivor_fraction;
    // Reference nursery for survival scaling: what a young collection
    // examines at the calibration point (2x min heap).
    config.survivor_reference_bytes =
        0.95 * setup.reference_min_heap_bytes;
    // The seed is a pure function of the cell coordinates, never of
    // execution order — the determinism anchor for parallel sweeps.
    config.seed = exec::cellSeed(
        options_.base_seed, workload.name,
        static_cast<std::uint64_t>(algorithm), heap_mb, invocation);
    config.trace_rate = options_.trace_rate;
    config.time_limit_sec = options_.time_limit_sec;
    config.trace = shard;
    config.metrics = options_.metrics;
    config.metrics_interval_ns = options_.metrics_interval_ms * 1e6;
    if (options_.faults.enabled()) {
        config.faults = &options_.faults;
        config.fault_attempt = attempt;
    }
    config.load = load;
    config.keep_gc_log = options_.keep_gc_log;

    auto result = runtime::runExecution(config, setup.plan, setup.live,
                                        collector);
    trace::hot::count(trace::hot::InvocationsCompleted);
    return result;
}

runtime::ExecutionResult
Runner::runWithRetry(const workloads::Descriptor &workload,
                     gc::Algorithm algorithm, double heap_mb,
                     int invocation,
                     std::unique_ptr<trace::TraceSink> &shard,
                     runtime::LoadGenerator *load) const
{
    // Without fault injection a failed run re-fails bit-identically,
    // so only injected faults earn retries.
    const int attempts =
        1 + (options_.faults.enabled() ? std::max(0, options_.retries)
                                       : 0);
    runtime::ExecutionResult result;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0 && options_.retry_backoff_ms > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    options_.retry_backoff_ms * attempt));
        }
        // Fresh shard per attempt: a failed attempt's events must not
        // pollute the merged timeline. Shards come from the pool
        // (reset on acquire), so retries recycle the same buffers.
        if (options_.trace != nullptr) {
            if (shard != nullptr)
                trace::TraceSink::releaseShard(std::move(shard));
            shard = trace::TraceSink::acquireShard(
                options_.trace->shardOptions());
        }
        // LoadGenerator::attach resets the generator, so a retried
        // attempt never sees the failed attempt's requests.
        result = executeInvocation(workload, algorithm, heap_mb,
                                   invocation, attempt, shard.get(),
                                   load);
        result.attempts = attempt + 1;
        if (result.usable())
            break;
    }
    return result;
}

void
Runner::mergeInvocation(const workloads::Descriptor &workload,
                        gc::Algorithm algorithm, int invocation,
                        const runtime::ExecutionResult &result,
                        const trace::TraceSink &shard) const
{
    // Wrap the invocation in a harness-track span. The shard carries
    // run-relative timestamps (each engine starts at zero); merging
    // offsets them by the sink's time base, which then advances past
    // this invocation (plus a gap for readability) so invocations
    // line up end-to-end on one monotonic timeline regardless of the
    // order in which parallel invocations *finished*.
    trace::TraceSink &sink = *options_.trace;
    const auto track = sink.registerTrack("harness");
    const char *label = sink.internName(
        workload.name + "/" + gc::algorithmName(algorithm) + " inv" +
        std::to_string(invocation));
    const double begin = sink.timeBase();
    sink.beginSpanAbs(track, trace::Category::Harness, label, begin);
    sink.merge(shard, begin);
    sink.endSpanAbs(track, trace::Category::Harness, label,
                    begin + result.wall);
    sink.setTimeBase(begin + result.wall + 1e6 /* 1 ms gap */);
}

runtime::ExecutionResult
Runner::runOnce(const workloads::Descriptor &workload,
                gc::Algorithm algorithm, double heap_mb, int invocation,
                runtime::LoadGenerator *load) const
{
    std::unique_ptr<trace::TraceSink> shard;
    auto result = runWithRetry(workload, algorithm, heap_mb, invocation,
                               shard, load);
    if (options_.trace != nullptr) {
        mergeInvocation(workload, algorithm, invocation, result,
                        *shard);
        trace::TraceSink::releaseShard(std::move(shard));
    }
    return result;
}

InvocationSet
Runner::runAtHeapMb(const workloads::Descriptor &workload,
                    gc::Algorithm algorithm, double heap_mb) const
{
    const auto n = static_cast<std::size_t>(options_.invocations);
    const std::size_t jobs = exec::resolveJobs(options_.jobs);

    InvocationSet set;
    if (jobs <= 1 || n <= 1) {
        set.runs.reserve(n);
        for (int inv = 0; inv < options_.invocations; ++inv)
            set.runs.push_back(
                runOnce(workload, algorithm, heap_mb, inv));
        return set;
    }

    // Fan invocations across the pool. Results land in pre-sized
    // slots by invocation index and each invocation traces into its
    // own shard, so neither completion order nor steal order is
    // observable; shards merge afterwards in invocation order.
    set.runs.resize(n);
    std::vector<std::unique_ptr<trace::TraceSink>> shards(n);
    trace::TraceSink *sink = options_.trace;
    exec::parallel_for(
        exec::Pool::shared(), n,
        [&](std::size_t i) {
            set.runs[i] =
                runWithRetry(workload, algorithm, heap_mb,
                             static_cast<int>(i), shards[i], nullptr);
        },
        jobs);
    if (sink != nullptr) {
        for (std::size_t i = 0; i < n; ++i) {
            mergeInvocation(workload, algorithm, static_cast<int>(i),
                            set.runs[i], *shards[i]);
            trace::TraceSink::releaseShard(std::move(shards[i]));
        }
    }
    return set;
}

InvocationSet
Runner::run(const workloads::Descriptor &workload,
            gc::Algorithm algorithm, double heap_factor) const
{
    CAPO_ASSERT(heap_factor > 0.0, "heap factor must be positive");
    const double min_mb =
        workloads::sizeMinHeapMb(workload, options_.size);
    return runAtHeapMb(workload, algorithm, heap_factor * min_mb);
}

} // namespace capo::harness
