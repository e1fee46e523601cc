/**
 * @file
 * runbms: execute an experiment definition file, the way the paper's
 * artifact drives running-ng ("running runbms ./results
 * ./experiments/lbo.yml").
 *
 *   $ runbms myplan.capo [--csv results/] [--<plan-key> value ...]
 *
 * Example definition (see harness/plan_file.hh for the format):
 *
 *     experiment   = lbo
 *     workloads    = lusearch, cassandra
 *     collectors   = production
 *     heap_factors = 1.5, 2, 3, 6
 *     invocations  = 3
 *
 * A plan is a registered experiment plus its arguments, so runbms is
 * a translator: it parses the file (a malformed one exits 2 naming
 * the line), rewrites it as `<kind> --key=value ...`, appends its own
 * command line so the last flag wins, and runs that through the
 * registry's main. The flags are the plan keys (`--heap-factors 2,4`,
 * `--checkpoint run.ckpt --resume`, ...); `--csv <dir>` is
 * `--artifacts <dir>`.
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/plan_file.hh"
#include "report/experiment.hh"

using namespace capo;

int
main(int argc, char **argv)
{
    if (argc < 2 || argv[1][0] == '-') {
        std::cerr << "usage: runbms <plan-file> [--csv dir] "
                     "[--<plan-key> value ...]\n";
        return 2;
    }
    harness::ExperimentPlan plan;
    try {
        plan = harness::loadPlan(argv[1]);
    } catch (const harness::ParseError &e) {
        std::cerr << "runbms: " << e.what() << "\n";
        return 2;
    }

    const std::string kind = harness::planKindName(plan.kind);
    std::vector<std::string> args = {kind};
    for (auto &arg : harness::planArgs(plan))
        args.push_back(std::move(arg));
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--csv" || arg.rfind("--csv=", 0) == 0)
            arg.replace(0, 5, "--artifacts");
        args.push_back(arg);
    }

    std::vector<char *> translated;
    for (auto &arg : args)
        translated.push_back(arg.data());
    return report::runExperimentMain(
        kind, static_cast<int>(translated.size()), translated.data());
}
