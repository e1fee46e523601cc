/**
 * @file
 * Microbenchmarks of the framework itself (google-benchmark): the
 * paper stresses that recording latency events must be cheap and that
 * characterization is computationally non-trivial; these benchmarks
 * quantify the cost of capo's hot paths.
 */

#include <benchmark/benchmark.h>

#include "gc/factory.hh"
#include "metrics/latency.hh"
#include "metrics/mmu.hh"
#include "metrics/request_synth.hh"
#include "metrics/summary.hh"
#include "runtime/execution.hh"
#include "sim/engine.hh"
#include "stats/pca.hh"
#include "support/arena.hh"
#include "support/rng.hh"

namespace {

using namespace capo;

/** Cost of recording one latency event (the "careful engineering
 *  ensures that the cost of recording these measurements is low"
 *  claim). */
void
BM_LatencyRecord(benchmark::State &state)
{
    metrics::LatencyRecorder rec;
    rec.reserve(1 << 20);
    double t = 0.0;
    for (auto _ : state) {
        rec.record(t, t + 1.0);
        t += 1.0;
        benchmark::DoNotOptimize(rec.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencyRecord);

/** Metered-latency transform over n events with a 1 us mean gap. The
 *  window is span / 70, the ratio of the 100 ms metered window to a
 *  ~7 s timed iteration in the latency_synth benchmark workload: the
 *  ramp is walked, not short-cut to full smoothing, and ~1.4% of
 *  events lie within W/2 of an end. */
void
BM_MeteredLatency(benchmark::State &state)
{
    const auto n = static_cast<int>(state.range(0));
    support::Rng rng(1);
    metrics::LatencyRecorder rec;
    double t = 0.0;
    double first = 0.0;
    for (int i = 0; i < n; ++i) {
        t += rng.exponential(1000.0);
        if (i == 0)
            first = t;
        rec.record(t, t + rng.exponential(500.0));
    }
    const double window = (t - first) / 70.0;
    for (auto _ : state) {
        auto metered = rec.meteredLatencies(window);
        benchmark::DoNotOptimize(metered.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MeteredLatency)->Arg(1000)->Arg(10000)->Arg(100000);

/** Metered latency over starts exactly one window apart: every window
 *  opens where the previous one closes, so the tied edges take the
 *  sort-based path. */
void
BM_MeteredLatencyTied(benchmark::State &state)
{
    const auto n = static_cast<int>(state.range(0));
    const double window = 1000.0;
    support::Rng rng(1);
    metrics::LatencyRecorder rec;
    for (int i = 0; i < n; ++i) {
        const double start = window * i;
        rec.record(start, start + rng.exponential(500.0));
    }
    for (auto _ : state) {
        auto metered = rec.meteredLatencies(window);
        benchmark::DoNotOptimize(metered.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MeteredLatencyTied)->Arg(1000)->Arg(10000)->Arg(100000);

/** The paper's three latency quantiles (p50, p99, p99.9) of n
 *  samples in one selection pass, copy of the sample included. */
void
BM_Quantiles(benchmark::State &state)
{
    const auto n = static_cast<int>(state.range(0));
    support::Rng rng(5);
    std::vector<double> sample;
    for (int i = 0; i < n; ++i)
        sample.push_back(rng.exponential(1e6));
    const std::vector<double> qs = {0.5, 0.99, 0.999};
    for (auto _ : state) {
        auto values = metrics::quantiles(sample, qs);
        benchmark::DoNotOptimize(values.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Quantiles)->Arg(1000)->Arg(10000)->Arg(100000);

/** MMU queries over a large pause log. */
void
BM_MmuQuery(benchmark::State &state)
{
    support::Rng rng(2);
    std::vector<std::pair<double, double>> pauses;
    double t = 0.0;
    for (int i = 0; i < 10000; ++i) {
        t += rng.exponential(1e6);
        const double end = t + rng.exponential(1e5);
        pauses.emplace_back(t, end);
        t = end;
    }
    metrics::Mmu mmu(pauses, 0.0, t + 1e6);
    double window = 1e3;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mmu.at(window));
        window = window < 1e9 ? window * 1.5 : 1e3;
    }
}
BENCHMARK(BM_MmuQuery);

/** Discrete-event engine throughput (events per second). */
void
BM_EngineEvents(benchmark::State &state)
{
    class Churn : public sim::Agent
    {
      public:
        std::string_view name() const override { return "churn"; }
        sim::Action
        resume(sim::Engine &) override
        {
            return sim::Action::compute(10.0, 1.0 + step_++ % 3);
        }

      private:
        int step_ = 0;
    };

    for (auto _ : state) {
        sim::Engine engine(8.0);
        std::vector<Churn> agents(8);
        for (auto &agent : agents)
            engine.addAgent(&agent);
        engine.run(1e5);
        benchmark::DoNotOptimize(engine.dispatchCount());
        state.SetItemsProcessed(state.items_processed() +
                                engine.dispatchCount());
    }
}
BENCHMARK(BM_EngineEvents);

/** Per-event cost of the incremental fluid-rate engine in the
 *  production configuration (arena-backed containers, mixed
 *  compute/timer events so both the completion path and the timer
 *  path are exercised). This is the microbench behind the perf
 *  gate's normalized sim-event floor: watch ns/item. */
void
BM_EngineStep(benchmark::State &state)
{
    class Stepper : public sim::Agent
    {
      public:
        std::string_view name() const override { return "stepper"; }
        sim::Action
        resume(sim::Engine &engine) override
        {
            ++step_;
            if (step_ % 5 == 0)
                return sim::Action::sleepUntil(engine.now() + 7.0);
            return sim::Action::compute(10.0, 1.0 + step_ % 3);
        }

      private:
        int step_ = 0;
    };

    support::CellArena arena;
    for (auto _ : state) {
        arena.reset();
        sim::Engine engine(8.0, &arena);
        std::vector<Stepper> agents(8);
        for (auto &agent : agents)
            engine.addAgent(&agent);
        engine.run(1e5);
        benchmark::DoNotOptimize(engine.dispatchCount());
        state.SetItemsProcessed(state.items_processed() +
                                engine.dispatchCount());
    }
}
BENCHMARK(BM_EngineStep);

/** Round-trip cost of the stall→pause→resume chain. A tight heap
 *  drives the mutator into the collector constantly, so the run is
 *  dominated by safepoint sequences: batch world freeze, the fused
 *  TTSP-sleep + pause-compute action, batch resume, and the stall
 *  wakeup (DESIGN.md §14). Items are completed collection cycles:
 *  watch ns/item for the per-pause cost. */
void
BM_PausePath(benchmark::State &state)
{
    runtime::ExecutionConfig cfg;
    cfg.cpus = 8.0;
    cfg.heap_bytes = 48.0 * 1024.0 * 1024.0;
    cfg.survivor_fraction = 0.03;
    cfg.survivor_reference_bytes = cfg.heap_bytes * 0.5;
    cfg.seed = 11;
    cfg.time_limit_sec = 400;

    runtime::MutatorPlan plan;
    plan.iterations = 2;
    plan.width = 4.0;
    plan.work_per_iteration = 0.2e9 * plan.width;
    plan.alloc_per_iteration = 4e9;

    heap::LiveSetModel live;
    live.base_bytes = 20.0 * 1024.0 * 1024.0;
    live.buildup_fraction = 0.05;

    for (auto _ : state) {
        auto collector = gc::makeCollector(gc::Algorithm::Serial);
        const auto result =
            runtime::runExecution(cfg, plan, live, *collector);
        benchmark::DoNotOptimize(result.collections);
        state.SetItemsProcessed(
            state.items_processed() +
            static_cast<std::int64_t>(result.collections));
    }
}
BENCHMARK(BM_PausePath);

/** Full-suite PCA (standardize + covariance + Jacobi). */
void
BM_SuitePca(benchmark::State &state)
{
    const auto table = stats::shippedStats();
    for (auto _ : state) {
        auto pca = stats::runPca(table, 4);
        benchmark::DoNotOptimize(pca.variance_fraction.data());
    }
}
BENCHMARK(BM_SuitePca);

/** Request synthesis over a long rate timeline. */
void
BM_RequestSynthesis(benchmark::State &state)
{
    std::vector<sim::RateSegment> timeline;
    support::Rng rng(3);
    double t = 0.0;
    for (int i = 0; i < 5000; ++i) {
        const double next = t + rng.exponential(2e5);
        timeline.push_back({t, next, i % 7 ? 1.0 : 0.0});
        t = next;
    }
    workloads::RequestProfile profile;
    profile.enabled = true;
    profile.count = 100000;
    profile.lanes = 16;
    for (auto _ : state) {
        auto rec = metrics::synthesizeRequests(timeline, 1.0, profile,
                                               0.0, t,
                                               support::Rng(4));
        benchmark::DoNotOptimize(rec.size());
    }
    state.SetItemsProcessed(state.iterations() * profile.count);
}
BENCHMARK(BM_RequestSynthesis);

} // namespace

BENCHMARK_MAIN();
