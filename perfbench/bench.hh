/**
 * @file
 * Shared pieces of the Capo benchmark program: the host clock, the span
 * recorder behind the traced run, the exact-bits result digest, and the
 * interface each workload (a fixed sweep grid) implements.
 *
 * Every number here is host time spent by the library. Simulated time
 * is the model's output; it enters only through the result digest.
 */

#ifndef CAPO_PERFBENCH_BENCH_HH
#define CAPO_PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "report/artifact.hh"

namespace perfbench {

/** Host steady clock in ns (CLOCK_MONOTONIC on Linux, the clock the
 *  launcher stamps process start with). */
std::int64_t nowNs();

/**
 * Span recorder for the traced run. The benchmark opens one span around
 * each of its own calls into a library layer; spans nest on one thread,
 * stay in memory, and a layer's self time is its span minus the spans
 * opened inside it. A null tracer makes every Scope a no-op.
 */
class Tracer
{
  public:
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *layer);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        std::size_t index_ = 0;
    };

    /** Self seconds per layer name over every recorded span. */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as CSV (id, parent, layer, begin, end ns). */
    void writeCsv(const std::string &path) const;

  private:
    struct Span
    {
        const char *layer;
        std::int64_t begin_ns;
        std::int64_t end_ns;
        std::int64_t child_ns;
        std::int64_t parent;
    };

    std::vector<Span> spans_;
    std::int64_t open_ = -1;
};

/** FNV-1a over the exact bit patterns of a result's fields. */
class Digest
{
  public:
    void
    add(const void *data, std::size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= bytes[i];
            hash_ *= 0x100000001b3ULL;
        }
    }
    void add(double v) { add(&v, sizeof v); }
    void add(std::uint64_t v) { add(&v, sizeof v); }
    void add(bool v) { add(static_cast<std::uint64_t>(v)); }
    void add(const std::string &s)
    {
        add(static_cast<std::uint64_t>(s.size()));
        add(s.data(), s.size());
    }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/**
 * One checked result: a grid cell or, on lbo_sweep, one workload's LBO
 * row or the Figure 1 curve.
 * @c broken marks an unmodelled failure or a broken output invariant;
 * digest mismatches are judged by the caller.
 */
struct Item
{
    std::string key;
    std::uint64_t digest = 0;
    bool broken = false;
    std::string why;
};

/** Model and layer counts, read from what the library calls return.
 *  Filled by traced sweeps. */
struct Counts
{
    std::uint64_t events = 0;
    std::uint64_t collections = 0;
    std::uint64_t alloc_stalls = 0;
    std::uint64_t rate_segments = 0;
    std::uint64_t oom_cells = 0;
    std::uint64_t requests = 0;
    std::uint64_t quantile_calls = 0;
    std::uint64_t sorted_samples = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t pacer_decisions = 0;
    std::uint64_t report_bytes = 0;
};

/** What one pass over a workload's grid produced. */
struct SweepResult
{
    std::vector<Item> items;
    std::vector<double> cell_ms;  ///< Host ms per grid cell.
    double seconds = 0.0;         ///< Host seconds for the whole pass.
    Counts counts;
};

/** A (workload, collector) pair the runner builds a setup for. */
struct SetupKey
{
    const capo::workloads::Descriptor *workload;
    capo::gc::Algorithm algorithm;
};

/**
 * One benchmark workload: a fixed sweep grid over the library.
 * sweep(nullptr, ...) runs each cell through the library's public sweep
 * entry point; with a tracer it rebuilds each cell from the layer calls
 * that entry point makes, under spans, and must give the same digests.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::size_t cells() const = 0;
    virtual const capo::harness::ExperimentOptions &options() const = 0;
    virtual std::vector<SetupKey> setupKeys() const = 0;

    virtual SweepResult sweep(Tracer *tracer,
                              capo::report::ArtifactSink &sink) = 0;

    /**
     * Reference recording only: run the whole grid through the
     * library's full-grid sweep functions and count the cells whose
     * results differ from the last sweep(nullptr, ...).
     */
    virtual std::size_t crossCheck() = 0;

    /** Keep each untraced sweep's results for crossCheck. Off in timed
     *  runs: a sweep's results die inside the sweep, as for a user. */
    void keepResults() { keep_ = true; }

  protected:
    bool keep_ = false;
};

/** The grid named @p name ("lbo_sweep", "latency_synth",
 *  "openloop_live") at @p seed, cut to its first @p max_cells cells
 *  when nonzero; null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       std::size_t max_cells);

} // namespace perfbench

#endif // CAPO_PERFBENCH_BENCH_HH
