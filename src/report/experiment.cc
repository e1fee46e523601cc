#include "report/experiment.hh"

#include <algorithm>
#include <iostream>
#include <memory>
#include <set>

#include "exec/seed.hh"
#include "harness/plan_file.hh"
#include "support/logging.hh"

namespace capo::report {

ExperimentRegistry &
ExperimentRegistry::instance()
{
    static ExperimentRegistry registry;
    return registry;
}

void
ExperimentRegistry::add(Experiment experiment)
{
    CAPO_ASSERT(!experiment.name.empty(),
                "experiment registered without a name");
    CAPO_ASSERT(find(experiment.name) == nullptr,
                "duplicate experiment registration");
    experiments_.push_back(std::move(experiment));
}

const Experiment *
ExperimentRegistry::find(const std::string &name) const
{
    for (const auto &experiment : experiments_) {
        if (experiment.name == name)
            return &experiment;
    }
    return nullptr;
}

std::vector<const Experiment *>
ExperimentRegistry::all() const
{
    std::vector<const Experiment *> out;
    out.reserve(experiments_.size());
    for (const auto &experiment : experiments_)
        out.push_back(&experiment);
    std::sort(out.begin(), out.end(),
              [](const Experiment *a, const Experiment *b) {
                  return a->name < b->name;
              });
    return out;
}

RegisterExperiment::RegisterExperiment(Experiment experiment)
{
    ExperimentRegistry::instance().add(std::move(experiment));
}

support::Flags
standardFlags(const std::string &description)
{
    support::Flags flags(description);
    flags.addBool("full", false,
                  "use the paper's full methodology (10 invocations, "
                  "5 iterations) instead of the quick configuration");
    flags.addString("invocations", "0",
                    "override the number of invocations (0 = preset)");
    flags.addString("iterations", "0",
                    "override the number of iterations (0 = preset)");
    flags.addString("seed", std::to_string(0x5eed), "base random seed");
    flags.addString("jobs", "1",
                    "cells/invocations to run concurrently (0 = all "
                    "hardware threads); results are identical for any "
                    "value");
    flags.addAlias("j", "jobs");
    flags.addString("artifacts", "",
                    "directory for result-table artifacts (empty = "
                    "print only); tables land as <experiment>/<table>"
                    ".csv");
    flags.addBool("jsonl", false,
                  "also emit result tables as JSON-lines next to the "
                  "CSVs");
    return flags;
}

harness::ExperimentOptions
optionsFromFlags(const support::Flags &flags, int quick_invocations,
                 int quick_iterations)
{
    // A scratch plan, so the plan keys' validators check the values.
    harness::ExperimentPlan plan;
    const bool full = flags.getBool("full");
    plan.options.invocations = full ? 10 : quick_invocations;
    plan.options.iterations = full ? 5 : quick_iterations;
    for (const char *key : {"invocations", "iterations"}) {
        if (flags.getString(key) != "0")
            harness::applyPlanKey(plan, key, flags.getString(key));
    }
    harness::applyPlanKey(plan, "seed", flags.getString("seed"));
    harness::applyPlanKey(plan, "jobs", flags.getString("jobs"));
    return plan.options;
}

namespace {

/** Flush the store's tables through the sink as
 *  <experiment>/<table>.csv (plus .jsonl on request). */
void
flushStore(const Experiment &experiment, const ResultStore &store,
           ArtifactSink &sink, bool jsonl)
{
    for (const auto &name : store.names()) {
        const ResultTable *table = store.find(name);
        const std::string base = experiment.name + "/" + name;
        sink.writeTable(base + formatSuffix(Format::Csv), *table,
                        Format::Csv);
        if (jsonl) {
            sink.writeTable(base + formatSuffix(Format::Jsonl), *table,
                            Format::Jsonl);
        }
    }
}

/** The experiment's flags: the standard set plus its own. */
support::Flags
declaredFlags(const Experiment &experiment)
{
    auto flags = standardFlags(experiment.description);
    if (experiment.add_flags)
        experiment.add_flags(flags);
    return flags;
}

/** The experiment's flags parsed from @p argv (program name first);
 *  ParseError on an unknown flag, a missing value or a value of the
 *  wrong type. */
support::Flags
parseFlags(const Experiment &experiment, int argc,
           const char *const *argv)
{
    auto flags = declaredFlags(experiment);
    std::string error;
    if (!flags.tryParse(argc, argv, error) || !flags.valuesValid(error))
        throw harness::ParseError(0, error);
    return flags;
}

int
runParsed(const Experiment &experiment, support::Flags &flags,
          ArtifactSink &sink, ResultStore &store,
          std::function<harness::CheckpointJournal *()> journal)
{
    ExperimentContext context{
        experiment, flags,
        optionsFromFlags(flags, experiment.quick_invocations,
                         experiment.quick_iterations),
        sink, store, std::move(journal)};
    return experiment.run(context);
}

/**
 * The journal header's hash: the experiment and every flag value
 * that shapes results. It leaves out what a resumed run may change:
 * the fan-out (results are identical at any --jobs), where output
 * lands, what is traced (a traced sweep re-runs its cells anyway)
 * and the journal flags themselves.
 */
std::uint64_t
journalHash(const Experiment &experiment, const support::Flags &flags)
{
    static const std::set<std::string> kLeftOut = {
        "jobs",      "artifacts",        "jsonl",
        "trace-out", "trace-categories", "metrics-interval",
        "checkpoint", "resume"};
    std::string canon = experiment.name;
    for (const auto &[name, value] : flags.values()) {
        if (kLeftOut.count(name) == 0)
            canon += "|" + name + "=" + value;
    }
    return exec::hashString(canon);
}

} // namespace

int
runRegistered(const Experiment &experiment,
              const std::vector<std::string> &args, ArtifactSink &sink,
              ResultStore &store)
{
    std::vector<const char *> argv = {experiment.name.c_str()};
    for (const auto &arg : args)
        argv.push_back(arg.c_str());
    auto flags = parseFlags(experiment, static_cast<int>(argv.size()),
                            argv.data());
    return runParsed(experiment, flags, sink, store,
                     [] { return nullptr; });
}

int
runExperimentMain(const std::string &name, int argc, char **argv)
{
    const Experiment *found = ExperimentRegistry::instance().find(name);
    if (found == nullptr) {
        std::cerr << "unknown experiment '" << name
                  << "' (see capo-bench --list)\n";
        return 2;
    }
    const Experiment &experiment = *found;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            declaredFlags(experiment).parse(argc, argv);  // exits 0
    }
    try {
        auto flags = parseFlags(experiment, argc, argv);

        const bool resume = flags.knows("resume") && flags.getBool("resume");
        const std::string checkpoint =
            flags.knows("checkpoint") ? flags.getString("checkpoint") : "";
        if (resume && checkpoint.empty())
            throw harness::ParseError(0, "--resume needs --checkpoint");
        std::unique_ptr<harness::CheckpointJournal> journal;
        const auto open = [&]() -> harness::CheckpointJournal * {
            if (journal || checkpoint.empty())
                return journal.get();
            std::string error;
            journal = harness::CheckpointJournal::open(
                checkpoint, journalHash(experiment, flags), resume, error);
            if (!journal)
                throw harness::ParseError(0, "checkpoint: " + error);
            if (resume) {
                std::cerr << "  resume: " << journal->entryCount()
                          << " journaled cell(s) in " << checkpoint << "\n";
            }
            return journal.get();
        };

        std::cout << "# " << experiment.title << "\n# (reproduces "
                  << experiment.paper_ref
                  << " of 'Rethinking Java Performance Analysis', "
                     "ASPLOS'25)\n\n";

        const std::string artifact_dir = flags.getString("artifacts");
        ArtifactSink sink(artifact_dir.empty() ? "." : artifact_dir);
        ResultStore store;
        const int code = runParsed(experiment, flags, sink, store, open);

        // A finished resume has re-confirmed every journaled cell, so
        // the journal can shed duplicate records and dead bytes:
        // rewrite it as one record per cell (atomic tmp+rename).
        if (journal && resume && journal->compact()) {
            std::cerr << "  compacted checkpoint " << checkpoint << " ("
                      << journal->entryCount() << " cell(s))\n";
        }

        if (!artifact_dir.empty()) {
            flushStore(experiment, store, sink, flags.getBool("jsonl"));
            std::size_t landed = 0;
            for (const auto &record : sink.artifacts())
                landed += record.ok ? 1 : 0;
            std::cerr << "  artifacts: " << landed << "/"
                      << sink.artifacts().size() << " under "
                      << artifact_dir << "\n";
        }
        // Quarantined artifacts are reported (by the sink) but never
        // flip a successful experiment's exit code: losing a report
        // file must not look like losing the experiment.
        return code;
    } catch (const harness::ParseError &e) {
        std::cerr << name << ": " << e.what() << "\n";
        return 2;
    }
}

int
benchMain(int argc, char **argv)
{
    const auto usage = [] {
        std::cerr
            << "usage: capo-bench <command>\n"
               "  list | --list      list registered experiments\n"
               "                     (--list: bare names for scripts)\n"
               "  run <name> [args]  run one experiment with its own\n"
               "                     flags (run <name> --help lists them)\n";
        return 2;
    };
    if (argc < 2)
        return usage();

    const std::string command = argv[1];
    const auto &registry = ExperimentRegistry::instance();

    if (command == "--list") {
        for (const auto *experiment : registry.all())
            std::cout << experiment->name << "\n";
        return 0;
    }
    if (command == "list") {
        for (const auto *experiment : registry.all()) {
            std::cout << experiment->name << "\t"
                      << experiment->paper_ref << "\t"
                      << experiment->title << "\n";
        }
        return 0;
    }
    if (command == "run") {
        if (argc < 3) {
            std::cerr << "capo-bench run: missing experiment name\n";
            return usage();
        }
        const std::string name = argv[2];
        // Shift argv so the experiment sees its own name as argv[0]
        // and only its own flags after it.
        return runExperimentMain(name, argc - 2, argv + 2);
    }
    std::cerr << "capo-bench: unknown command '" << command << "'\n";
    return usage();
}

} // namespace capo::report
