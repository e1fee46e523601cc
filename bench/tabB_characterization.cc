/**
 * @file
 * Integrated workload characterization (Section 5.1): re-measure the
 * measurable nominal statistics from actual experiment runs —
 * min-heap bisection, GC telemetry at 2x, sensitivity experiments,
 * counter sessions — and compare against the shipped values, exactly
 * the cross-check the DaCapo maintainers run when refreshing the
 * stats folder.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "harness/characterize.hh"
#include "workloads/registry.hh"

using namespace capo;

namespace {

using stats::MetricId;

/** The measured metrics worth comparing side by side. */
const MetricId kCompared[] = {
    MetricId::GMD, MetricId::GMU, MetricId::GCC, MetricId::GCA,
    MetricId::GCM, MetricId::GCP, MetricId::GTO, MetricId::GSS,
    MetricId::PET, MetricId::PWU, MetricId::PSD, MetricId::PMS,
    MetricId::PLS, MetricId::PIN, MetricId::PPE, MetricId::UIP,
    MetricId::PKP,
};

int
runTabB(report::ExperimentContext &context)
{
    harness::CharacterizeOptions options;
    options.base = context.options;
    options.base.invocations = 1;
    options.psd_invocations = 3;
    options.warmup_iterations = 8;

    const auto selection = bench::selectedWorkloads(
        context, {"fop", "lusearch", "h2", "cassandra", "xalan"});

    const auto shipped = stats::shippedStats();

    auto &compared = context.store.table(
        "characterization",
        report::Schema{{"workload", report::Type::String},
                       {"metric", report::Type::String},
                       {"shipped", report::Type::Double},
                       {"measured", report::Type::Double},
                       {"have_shipped", report::Type::Bool},
                       {"have_measured", report::Type::Bool}});

    for (const auto &name : selection) {
        std::cerr << "  characterizing " << name << "...\n";
        const auto &workload = workloads::byName(name);
        stats::StatTable measured;
        harness::measureWorkloadStats(workload, options, measured);

        std::cout << "\n## " << name << "\n";
        bench::AsciiTable table(
            {"metric", "shipped", "measured", "ratio"});
        for (auto id : kCompared) {
            const auto ship = shipped.get(name, id);
            const auto meas = measured.get(name, id);
            table.row(
                {stats::metricCode(id),
                 ship ? support::general(*ship, 4) : "-",
                 meas ? support::general(*meas, 4) : "-",
                 (ship && meas && *ship != 0.0)
                     ? support::fixed(*meas / *ship, 2)
                     : "-"});
            compared.addRow(
                {report::Value::str(name),
                 report::Value::str(stats::metricCode(id)),
                 report::Value::dbl(ship ? *ship : 0.0),
                 report::Value::dbl(meas ? *meas : 0.0),
                 report::Value::boolean(ship.has_value()),
                 report::Value::boolean(meas.has_value())});
        }
        table.render(std::cout);
    }

    std::cout <<
        "\nShipped values come from the paper's appendix; measured "
        "values from\ncapo's own experiment machinery. Ratios near 1 "
        "confirm the simulated\nsuite behaves like its published "
        "characterization (see EXPERIMENTS.md\nfor expected "
        "deviations).\n";
    return 0;
}

const report::RegisterExperiment kRegister{[] {
    report::Experiment e;
    e.name = "tabB_characterization";
    e.title = "Integrated workload characterization";
    e.paper_ref = "Section 5.1 (the stats folder)";
    e.description =
        "Section 5.1: measured vs shipped nominal statistics";
    e.quick_invocations = 1;
    e.quick_iterations = 2;
    e.run = runTabB;
    return e;
}()};

} // namespace
