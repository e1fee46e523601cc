/**
 * @file
 * The experiment registry: every reproduction binary as a declarative
 * registration instead of a hand-rolled main().
 *
 * Each fig/tab/ext binary used to duplicate the same plumbing — flag
 * declaration, --full presets, banner printing, ad-hoc CSV emission.
 * That collapses here: an `Experiment` declares its name, banner,
 * quick presets and a run() body; `runExperimentMain()` is the one
 * main loop (flags → options → banner → run → artifact flush through
 * the ArtifactSink); and `benchMain()` is the `capo-bench`
 * multiplexer that can list and run any registered experiment by
 * name. The historical one-binary-per-figure targets remain as thin
 * aliases over the same registrations.
 *
 * Registration is a static object per experiment translation unit:
 *
 *     const report::RegisterExperiment kRegister{[] {
 *         report::Experiment e;
 *         e.name = "fig01_lbo_geomean";
 *         ...
 *         e.run = runFig01;
 *         return e;
 *     }()};
 */

#ifndef CAPO_REPORT_EXPERIMENT_HH
#define CAPO_REPORT_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/checkpoint.hh"
#include "harness/runner.hh"
#include "report/artifact.hh"
#include "report/table.hh"
#include "support/flags.hh"

namespace capo::report {

struct Experiment;

/** Everything a registered experiment body gets to work with. */
struct ExperimentContext
{
    const Experiment &experiment;

    /** Parsed flags: the standard set (full / invocations /
     *  iterations / seed / jobs / artifacts / jsonl) plus whatever
     *  the experiment's add_flags declared. */
    support::Flags &flags;

    /** Harness options derived from the standard flags and the
     *  experiment's quick presets; bodies copy and tweak freely. */
    harness::ExperimentOptions options;

    /** The artifact choke point (extra files beyond the tables). */
    ArtifactSink &artifacts;

    /** Typed result tables; flushed through `artifacts` as
     *  <experiment>/<table>.csv after run() returns. */
    ResultStore &store;

    /** The checkpoint journal (null when there is none). For an
     *  experiment that declares --checkpoint and --resume
     *  (harness::addPlanFlags does), runExperimentMain opens it at
     *  the first call, so a body calls this once its arguments are
     *  checked and a bad one cannot truncate the journal. Throws
     *  harness::ParseError when the journal cannot be opened.
     *  runRegistered never opens one: a served request writes no
     *  file. */
    std::function<harness::CheckpointJournal *()> journal;
};

/** A declaratively registered reproduction experiment. */
struct Experiment
{
    /** Registry name; by convention equal to the historical binary
     *  name (e.g. "fig01_lbo_geomean"). */
    std::string name;

    /** Banner title ("Lower-bound overheads, geomean ..."). */
    std::string title;

    /** Paper anchor for the banner ("Figure 1(a,b)"). */
    std::string paper_ref;

    /** One-line --help description. */
    std::string description;

    /** Quick-mode presets (overridden by --full / explicit flags). */
    int quick_invocations = 3;
    int quick_iterations = 3;

    /** Declare experiment-specific flags (may be empty). */
    std::function<void(support::Flags &)> add_flags;

    /** The experiment body; returns the process exit code. */
    std::function<int(ExperimentContext &)> run;
};

/** The process-wide experiment registry. */
class ExperimentRegistry
{
  public:
    static ExperimentRegistry &instance();

    void add(Experiment experiment);

    /** Find by name (null when unknown). */
    const Experiment *find(const std::string &name) const;

    /** All experiments, name-sorted for stable listings. */
    std::vector<const Experiment *> all() const;

  private:
    std::vector<Experiment> experiments_;
};

/** Static registrar (one per experiment translation unit). */
struct RegisterExperiment
{
    explicit RegisterExperiment(Experiment experiment);
};

/** The standard flag set shared by every reproduction binary. */
support::Flags standardFlags(const std::string &description);

/** Experiment options derived from the standard flags, each value
 *  checked by the plan key of the same name (harness::applyPlanKey);
 *  throws harness::ParseError. */
harness::ExperimentOptions
optionsFromFlags(const support::Flags &flags, int quick_invocations = 3,
                 int quick_iterations = 3);

/**
 * Run one registered experiment inside an existing harness (tests,
 * golden snapshots, the server): parse @p args (argv-style, no
 * program name), build the context over the supplied @p sink and
 * @p store, and invoke the body. The banner is *not* printed, and no
 * checkpoint journal is opened. A bad argument — an unknown flag, a
 * malformed value, one the body's validators reject — throws
 * harness::ParseError; nothing exits the process.
 */
int runRegistered(const Experiment &experiment,
                  const std::vector<std::string> &args,
                  ArtifactSink &sink, ResultStore &store);

/**
 * The shared main(): look up @p name, parse argv, print the banner,
 * open the --checkpoint journal when the experiment declares one,
 * run, then flush the result store through the artifact sink (when
 * --artifacts was given). The journal's header hash covers the
 * experiment name and every flag value except --jobs, the output
 * paths, the tracing flags and --resume. Exits 2 on an unknown name,
 * a bad argument or a journal that cannot be opened.
 */
int runExperimentMain(const std::string &name, int argc, char **argv);

/** The `capo-bench` multiplexer main: list / run subcommands. */
int benchMain(int argc, char **argv);

} // namespace capo::report

#endif // CAPO_REPORT_EXPERIMENT_HH
