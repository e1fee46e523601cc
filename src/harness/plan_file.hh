/**
 * @file
 * Experiment definition files: capo's running-ng equivalent.
 *
 * The paper's artifact automates experiments with running-ng and
 * composable YAML definitions ("runbms ./results ./experiments/
 * lbo.yml"). Capo provides the same workflow with a deliberately
 * small line-oriented format:
 *
 *     # comments and blank lines are ignored
 *     experiment   = lbo            # lbo | latency | minheap | openloop
 *     workloads    = lusearch, h2   # names, or "all" / "latency"
 *     collectors   = serial, g1, zgc  # or "production" / "all"
 *     heap_factors = 1.5, 2, 3, 6   # x min heap, in (0, 1e6]
 *     iterations   = 5
 *     invocations  = 10
 *     jobs         = 4              # parallel cells; 0 = all threads
 *     size         = default        # small | default | large | vlarge
 *     seed         = 1234
 *     trace_out    = run.trace.json   # Chrome/Perfetto trace output
 *     trace_categories = gc, harness  # or "all" / "none"
 *     metrics_interval = 10           # counter sampling period (ms)
 *     faults       = alloc=0.01,gc=0.005  # fault spec (see fault.hh)
 *     fault_seed   = 7                # fault-stream salt
 *     retries      = 2                # attempts per faulty invocation
 *     checkpoint   = run.ckpt         # journal path (--resume reuses)
 *
 * Open-loop plans (`experiment = openloop`) add four keys:
 *
 *     arrival = poisson             # poisson | onoff | diurnal
 *     rate    = 0.5, 0.9, 1.2      # load factors (1.0 = lane saturation)
 *     burst   = 4:0.3               # on/off rate ratio : duty cycle
 *     pacing  = closed, static, adaptive  # modes (subset, any order)
 *
 * See `examples/runbms.cpp` for the executor. Malformed input raises
 * ParseError (never exits or crashes — the parser is fuzzed on that
 * contract); executors catch it and report.
 */

#ifndef CAPO_HARNESS_PLAN_FILE_HH
#define CAPO_HARNESS_PLAN_FILE_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "gc/factory.hh"
#include "harness/runner.hh"
#include "load/arrival.hh"

namespace capo::harness {

/**
 * Malformed experiment definition. what() carries the full message
 * including the 1-based line number (0 = whole-file problem).
 */
class ParseError : public std::runtime_error
{
  public:
    ParseError(int line, const std::string &message)
        : std::runtime_error(message), line_(line)
    {
    }

    int line() const { return line_; }

  private:
    int line_;
};

/** What a definition file asks capo to run. */
struct ExperimentPlan
{
    enum class Kind { Lbo, Latency, MinHeap, OpenLoop };

    Kind kind = Kind::Lbo;
    std::vector<std::string> workloads;     ///< Resolved names.
    std::vector<gc::Algorithm> collectors;  ///< Resolved algorithms.
    std::vector<double> heap_factors = {2.0};
    ExperimentOptions options;

    /** @{ Tracing, from the trace_out / trace_categories keys. Empty
     *  trace_out disables; the executor builds the sink and wires
     *  options.trace itself. (metrics_interval lands directly in
     *  options.metrics_interval_ms.) */
    std::string trace_out;
    trace::CategoryMask trace_categories = trace::kAllCategories;
    /** @} */

    /** Checkpoint journal path (empty disables); the executor opens
     *  the journal and decides resume-vs-fresh. (faults, fault_seed
     *  and retries land directly in `options`.) */
    std::string checkpoint;

    /** @{ Open-loop keys (`arrival`, `rate`, `burst`, `pacing`);
     *  only Kind::OpenLoop executors read them. */
    load::ArrivalSpec arrival;
    std::vector<double> load_factors = {0.5, 1.2};
    std::vector<std::string> pacing_modes = {"closed", "static",
                                             "adaptive"};
    /** @} */
};

/** Parse a definition from text; throws ParseError when malformed. */
ExperimentPlan parsePlan(const std::string &text);

/** Load and parse a definition file; throws ParseError if unreadable
 *  or malformed. */
ExperimentPlan loadPlan(const std::string &path);

/** Printable name of an experiment kind. */
const char *planKindName(ExperimentPlan::Kind kind);

} // namespace capo::harness

#endif // CAPO_HARNESS_PLAN_FILE_HH
