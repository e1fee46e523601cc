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
 *     metrics_interval = 10           # sampling (ms): 0 or >= 0.1
 *     faults       = alloc=0.01,gc=0.005  # fault spec (see fault.hh)
 *     fault_seed   = 7                # fault-stream salt
 *     retries      = 2                # attempts per faulty invocation
 *     checkpoint   = run.ckpt         # journal path (--resume reuses)
 *
 * Open-loop plans (`experiment = openloop`) add four keys:
 *
 *     arrival = poisson             # poisson | onoff | diurnal
 *     rate    = 0.5, 0.9, 1.2      # load factors in (0, 100]; 1.0 =
 *                                   # lane saturation
 *     burst   = 4:0.3               # on/off rate ratio : duty cycle
 *     pacing  = closed, static, adaptive  # modes (subset, any order)
 *
 * A plan is a registered experiment (bench/plan_experiments.cc) plus
 * its arguments: each key is a flag with '-' for '_', so
 * `capo-bench run lbo --workloads fop --heap-factors 2,4` is the plan
 * with those two keys, and `runbms` (examples/runbms.cpp) rewrites a
 * file with planArgs(). Files and flags go through one validator,
 * applyPlanKey(). Malformed input raises ParseError (never exits or
 * crashes — the parser is fuzzed on that contract).
 */

#ifndef CAPO_HARNESS_PLAN_FILE_HH
#define CAPO_HARNESS_PLAN_FILE_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "gc/factory.hh"
#include "harness/runner.hh"
#include "load/arrival.hh"
#include "support/flags.hh"
#include "workloads/plans.hh"

namespace capo::harness {

/**
 * Malformed experiment definition or argument. what() carries the
 * full message, including the 1-based line number when the value
 * came from a file (0 = whole-file problem or a command-line value).
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

    /** The file's `key = value` lines as written, in order: what
     *  planArgs passes on as flags. */
    std::vector<std::pair<std::string, std::string>> settings;
};

/** Parse a definition from text; throws ParseError when malformed. */
ExperimentPlan parsePlan(const std::string &text);

/** Load and parse a definition file; throws ParseError if unreadable
 *  or malformed. */
ExperimentPlan loadPlan(const std::string &path);

/** Printable name of an experiment kind; also the name of the
 *  registered experiment that runs it. */
const char *planKindName(ExperimentPlan::Kind kind);

/**
 * @{ The per-key validators. applyPlanKey() sets one `key = value`
 * the way a definition file line does; finishPlan() applies the
 * whole-plan rules after the last key (latency and open-loop plans
 * keep only latency-sensitive workloads). The others check one value
 * for flags that take the same values as a key. All throw ParseError,
 * naming @p line when it is positive.
 */
void applyPlanKey(ExperimentPlan &plan, const std::string &key,
                  const std::string &value, int line = 0);
void finishPlan(ExperimentPlan &plan);

/** A heap or load factor: a finite number in (0, 1e6] (the rate
 *  key caps load factors at 100). */
double parseFactor(const std::string &value, const char *what,
                   int line = 0);

/** A registered workload, by name. */
const workloads::Descriptor &resolveWorkload(const std::string &name,
                                             int line = 0);
/** @} */

/** Declare a @p kind plan's keys as string flags defaulting to an
 *  empty plan's values — every key but experiment and the standard
 *  iterations, invocations, seed and jobs — plus --resume. */
void addPlanFlags(ExperimentPlan::Kind kind, support::Flags &flags);

/** The @p kind plan those flags describe on top of @p options (the
 *  standard flags' values), each value through applyPlanKey. */
ExperimentPlan planFromFlags(ExperimentPlan::Kind kind,
                             const support::Flags &flags,
                             const ExperimentOptions &options);

/** A parsed file's settings as `--key=value` flags of its experiment,
 *  leaving out keys its kind does not read; planFromFlags on them
 *  gives the plan back. */
std::vector<std::string> planArgs(const ExperimentPlan &plan);

} // namespace capo::harness

#endif // CAPO_HARNESS_PLAN_FILE_HH
