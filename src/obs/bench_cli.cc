#include "obs/bench_cli.hh"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "obs/compare.hh"
#include "obs/recorder.hh"
#include "obs/snapshot.hh"
#include "report/experiment.hh"
#include "report/table.hh"

namespace capo::obs {

namespace {

/** "mean ± ci95" with enough digits to be comparable by eye. */
std::string
statText(const Stat &stat)
{
    if (stat.n == 0)
        return "-";
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.4g ±%.2g", stat.mean,
                  stat.ci95);
    return buffer;
}

std::string
ratioText(double ratio)
{
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.3f", ratio);
    return buffer;
}

/** The verdict table `capo-bench compare` prints. */
report::ResultTable
comparisonTable(const ComparisonReport &comparison)
{
    report::ResultTable table(report::Schema{
        {"metric", report::Type::String},
        {"baseline", report::Type::String},
        {"candidate", report::Type::String},
        {"ratio", report::Type::String},
        {"gate", report::Type::String},
        {"verdict", report::Type::String},
    });
    for (const auto &metric : comparison.metrics) {
        table.addRow({
            report::Value::str(metric.metric),
            report::Value::str(statText(metric.baseline)),
            report::Value::str(statText(metric.candidate)),
            report::Value::str(ratioText(metric.ratio)),
            report::Value::str(metric.gating ? "yes" : "-"),
            report::Value::str(verdictLabel(metric.verdict)),
        });
    }
    return table;
}

struct CliArgs
{
    RecorderOptions recorder;
    std::string experiment;
    std::string baseline_path;
    std::string out_dir = ".";
    double threshold = kDefaultThreshold;
    bool advisory = false;
    std::vector<std::string> experiment_args;
};

/** Hand-rolled option loop: recorder/gate options first, then
 *  everything after `--` goes to the experiment verbatim. */
bool
parseCliArgs(int argc, char **argv, bool wants_experiment,
             CliArgs &out, std::string &error)
{
    int i = 1;
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--") {
            ++i;
            break;
        }
        const auto value = [&](const char *name) -> const char * {
            if (i + 1 >= argc) {
                error = std::string(name) + " needs a value";
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--label") {
            const char *v = value("--label");
            if (v == nullptr)
                return false;
            out.recorder.label = v;
        } else if (arg == "--repeats") {
            const char *v = value("--repeats");
            if (v == nullptr)
                return false;
            out.recorder.repeats = std::atoi(v);
            if (out.recorder.repeats < 2) {
                error = "--repeats must be at least 2";
                return false;
            }
        } else if (arg == "--out") {
            const char *v = value("--out");
            if (v == nullptr)
                return false;
            out.out_dir = v;
        } else if (arg == "--baseline") {
            const char *v = value("--baseline");
            if (v == nullptr)
                return false;
            out.baseline_path = v;
        } else if (arg == "--threshold") {
            const char *v = value("--threshold");
            if (v == nullptr)
                return false;
            out.threshold = std::atof(v);
            if (out.threshold <= 0.0) {
                error = "--threshold must be positive";
                return false;
            }
        } else if (arg == "--advisory") {
            out.advisory = true;
        } else if (arg == "--no-overhead") {
            out.recorder.measure_overhead = false;
        } else if (arg == "--verbose") {
            out.recorder.verbose = true;
        } else if (!arg.empty() && arg[0] == '-') {
            error = "unknown option '" + arg + "'";
            return false;
        } else if (wants_experiment && out.experiment.empty()) {
            out.experiment = arg;
        } else {
            error = "unexpected argument '" + arg + "'";
            return false;
        }
    }
    for (; i < argc; ++i)
        out.experiment_args.push_back(argv[i]);
    if (wants_experiment && out.experiment.empty()) {
        error = "missing experiment name";
        return false;
    }
    return true;
}

const report::Experiment *
lookup(const std::string &name)
{
    const auto *experiment =
        report::ExperimentRegistry::instance().find(name);
    if (experiment == nullptr)
        std::cerr << "unknown experiment '" << name
                  << "' (see capo-bench list)\n";
    return experiment;
}

} // namespace

int
snapshotMain(int argc, char **argv)
{
    CliArgs cli;
    std::string error;
    if (!parseCliArgs(argc, argv, true, cli, error)) {
        std::cerr << "capo-bench snapshot: " << error << "\n"
                  << "usage: capo-bench snapshot [--label L] "
                     "[--repeats N] [--out DIR] [--no-overhead] "
                     "[--verbose] <experiment> "
                     "[-- <experiment args>]\n";
        return 2;
    }
    const auto *experiment = lookup(cli.experiment);
    if (experiment == nullptr)
        return 2;

    std::cerr << "recording " << cli.experiment << " ("
              << cli.recorder.repeats << " repeats)...\n";
    BenchSnapshot snapshot;
    try {
        snapshot = recordExperiment(*experiment, cli.experiment_args,
                                    cli.recorder);
    } catch (const std::exception &failure) {
        std::cerr << "capo-bench snapshot: " << failure.what() << "\n";
        return 2;
    }

    report::ArtifactSink sink(cli.out_dir);
    const std::string path = snapshotFileName(cli.recorder.label);
    if (!writeSnapshot(snapshot, sink, path)) {
        std::cerr << "capo-bench snapshot: failed to write " << path
                  << "\n";
        return 2;
    }
    std::cout << "wrote " << cli.out_dir << "/" << path
              << " (normalized cost "
              << statText(snapshot.normalized_cost) << ")\n";
    return 0;
}

int
compareMain(int argc, char **argv)
{
    CliArgs cli;
    std::string error;
    if (!parseCliArgs(argc, argv, false, cli, error) ||
        cli.baseline_path.empty()) {
        if (cli.baseline_path.empty() && error.empty())
            error = "missing --baseline";
        std::cerr << "capo-bench compare: " << error << "\n"
                  << "usage: capo-bench compare --baseline "
                     "BENCH_<name>.json [--repeats N] "
                     "[--threshold T] [--advisory] [--verbose]\n";
        return 2;
    }

    BenchSnapshot baseline;
    if (!loadSnapshot(cli.baseline_path, baseline, error)) {
        std::cerr << "capo-bench compare: " << error << "\n";
        return 2;
    }
    const auto *experiment = lookup(baseline.experiment);
    if (experiment == nullptr)
        return 2;

    // Re-measure under the baseline's own recipe so the comparison is
    // config-identical by construction.
    cli.recorder.label = baseline.name;
    cli.recorder.measure_overhead = false;
    std::cerr << "re-measuring " << baseline.experiment << " ("
              << cli.recorder.repeats << " repeats) against "
              << cli.baseline_path << "...\n";
    BenchSnapshot candidate;
    try {
        candidate = recordExperiment(*experiment, baseline.args,
                                     cli.recorder);
    } catch (const std::exception &failure) {
        std::cerr << "capo-bench compare: " << failure.what() << "\n";
        return 2;
    }

    const ComparisonReport comparison =
        compareSnapshots(baseline, candidate, cli.threshold);
    if (comparison.config_mismatch) {
        std::cerr << "capo-bench compare: config mismatch: "
                  << comparison.mismatch_detail << "\n";
        return 1;
    }

    comparisonTable(comparison).renderAscii(std::cout);
    const bool regressed = comparison.regressed();
    std::cout << "\nverdict: "
              << (regressed ? "REGRESSION (gating metric slowed by "
                              "more than the threshold with disjoint "
                              "confidence intervals)"
                            : "no significant regression")
              << "\n";
    if (regressed && cli.advisory) {
        std::cout << "advisory mode: not failing the build\n";
        return 0;
    }
    return regressed ? 1 : 0;
}

} // namespace capo::obs
