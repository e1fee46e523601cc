#include "obs/recorder.hh"

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "exec/seed.hh"
#include "metrics/summary.hh"
#include "report/experiment.hh"
#include "trace/hot_metrics.hh"

namespace capo::obs {

namespace {

double
monotonicNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The fixed deterministic calibration workload: a mix64 chain long
 *  enough to take a few milliseconds on any plausible machine. */
std::uint64_t
calibrationSpinOnce()
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 4'000'000; ++i)
        x = exec::mix64(x + static_cast<std::uint64_t>(i));
    return x;
}

/** The handicap to inject into every timed run, in seconds. */
double
handicapSeconds(const RecorderOptions &options)
{
    double ms = options.handicap_ms;
    if (const char *env = std::getenv("CAPO_PERF_GATE_HANDICAP_MS")) {
        char *end = nullptr;
        const double parsed = std::strtod(env, &end);
        if (end != nullptr && end != env && parsed > 0.0)
            ms += parsed;
    }
    return ms / 1000.0;
}

Stat
toStat(const metrics::Summary &summary)
{
    Stat stat;
    stat.mean = summary.mean;
    stat.ci95 = summary.ci95;
    stat.n = summary.n;
    return stat;
}

/** One captured, timed run of the experiment; returns wall seconds and
 *  accumulates the hot-tier delta into @p delta_out. */
double
timedRun(const report::Experiment &experiment,
         const std::vector<std::string> &args, double handicap_sec,
         trace::hot::Snapshot *delta_out)
{
    report::ArtifactSink sink(".", report::ArtifactSink::Mode::Discard);
    report::ResultStore store;

    // Capture stdout so repeated banner-free runs stay quiet; the
    // body's prints are part of the work being timed, just redirected.
    std::ostringstream captured;
    std::streambuf *saved = std::cout.rdbuf(captured.rdbuf());

    const trace::hot::Snapshot before = trace::hot::snapshot();
    const double start = monotonicNow();
    const int code = report::runRegistered(experiment, args, sink, store);
    if (handicap_sec > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(handicap_sec));
    const double elapsed = monotonicNow() - start;
    const trace::hot::Snapshot after = trace::hot::snapshot();

    std::cout.rdbuf(saved);
    if (code != 0)
        throw std::runtime_error("experiment '" + experiment.name +
                                 "' exited with code " +
                                 std::to_string(code));
    if (delta_out != nullptr)
        *delta_out = after.since(before);
    return elapsed;
}

} // namespace

double
calibrationSeconds()
{
    // Best of three: the minimum is the least noisy estimator of the
    // machine's unloaded speed for a fixed workload.
    double best = 0.0;
    volatile std::uint64_t guard = 0;
    for (int i = 0; i < 3; ++i) {
        const double start = monotonicNow();
        guard = guard + calibrationSpinOnce();
        const double elapsed = monotonicNow() - start;
        if (i == 0 || elapsed < best)
            best = elapsed;
    }
    return best;
}

double
hotRecordNs(bool enabled)
{
    const bool was = trace::hot::enabled();
    trace::hot::setEnabled(enabled);

    constexpr int kRecords = 2'000'000;
    const double start = monotonicNow();
    for (int i = 0; i < kRecords; ++i)
        trace::hot::observe(trace::hot::TimerQueueDepth,
                            static_cast<double>(i & 1023));
    const double elapsed = monotonicNow() - start;

    trace::hot::setEnabled(was);
    return elapsed * 1e9 / kRecords;
}

BenchSnapshot
recordExperiment(const report::Experiment &experiment,
                 const std::vector<std::string> &args,
                 const RecorderOptions &options)
{
    BenchSnapshot snapshot;
    snapshot.name = options.label;
    snapshot.experiment = experiment.name;
    snapshot.args = args;
    snapshot.config_hash = configHash(experiment.name, args);
    snapshot.hardware_threads =
        static_cast<int>(std::thread::hardware_concurrency());
    snapshot.repeats = options.repeats < 1 ? 1 : options.repeats;

    // The flag parser is last-wins, so the effective jobs value is the
    // last --jobs in the arg list (default 1).
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == "--jobs" || args[i] == "-j")
            snapshot.jobs = std::atoi(args[i + 1].c_str());
    }

    const bool was_enabled = trace::hot::enabled();
    trace::hot::setEnabled(true);
    const double handicap_sec = handicapSeconds(options);

    snapshot.calibration_sec = calibrationSeconds();

    // Warm-up run: pays one-time costs (page faults, lazy statics) so
    // the timed repeats measure steady state.
    timedRun(experiment, args, 0.0, nullptr);

    std::vector<double> elapsed, normalized, cells, invocations, events;
    trace::hot::Snapshot accumulated;
    for (int i = 0; i < snapshot.repeats; ++i) {
        trace::hot::Snapshot delta;
        const double sec =
            timedRun(experiment, args, handicap_sec, &delta);
        elapsed.push_back(sec);
        normalized.push_back(sec / snapshot.calibration_sec);
        cells.push_back(
            delta.counter(trace::hot::SweepCellsCompleted) / sec);
        invocations.push_back(
            delta.counter(trace::hot::InvocationsCompleted) / sec);
        events.push_back(delta.counter(trace::hot::SimEvents) / sec);
        accumulated = delta;  // Last repeat's histograms are reported.
        if (options.verbose)
            std::cerr << "  repeat " << (i + 1) << "/"
                      << snapshot.repeats << ": " << sec << " s\n";
    }
    snapshot.elapsed_sec = toStat(metrics::summarize(elapsed));
    snapshot.normalized_cost = toStat(metrics::summarize(normalized));
    snapshot.cells_per_sec = toStat(metrics::summarize(cells));
    snapshot.invocations_per_sec =
        toStat(metrics::summarize(invocations));
    snapshot.sim_events_per_sec = toStat(metrics::summarize(events));

    for (std::size_t m = 0; m < trace::hot::kHistogramCount; ++m) {
        const auto &hist = accumulated.histograms[m];
        if (hist.count == 0)
            continue;
        HotStat stat;
        stat.name = hist.name;
        stat.count = hist.count;
        stat.mean = hist.mean();
        stat.p50 = hist.quantile(0.5);
        stat.p99 = hist.quantile(0.99);
        snapshot.hot.push_back(std::move(stat));
    }

    if (options.measure_overhead) {
        snapshot.hot_disabled_ns = hotRecordNs(false);
        snapshot.hot_enabled_ns = hotRecordNs(true);
    }

    trace::hot::setEnabled(was_enabled);
    return snapshot;
}

} // namespace capo::obs
