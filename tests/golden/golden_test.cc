/**
 * @file
 * Golden-snapshot tests: small reference outputs for the paper's key
 * artifacts — the fig01 suite LBO geomean curve, the tab03 nominal
 * statistics table, the figA heap timeline, the latency sweep's cell
 * quantiles and the CSV files of one small plan per plan experiment
 * — checked in under tests/golden/data/ and diffed against current
 * output at a fixed seed.
 *
 * The diff is numeric-tolerant (relative 1e-9) so cosmetic printf
 * differences never fail the suite while any real change in simulated
 * results does; the hex-exact latency sweep golden and the plan
 * goldens are compared byte for byte. On mismatch the current output
 * lands next to the golden file as "<name>.actual" for inspection (CI
 * uploads these).
 *
 * Regenerating after an intentional behaviour change:
 *
 *     CAPO_REGEN_GOLDEN=1 ./build/tests/golden_test
 *
 * then review the diff and commit the updated files.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/latency_experiment.hh"
#include "harness/lbo_experiment.hh"
#include "harness/plan_file.hh"
#include "harness/runner.hh"
#include "metrics/export.hh"
#include "report/artifact.hh"
#include "report/codec.hh"
#include "report/experiment.hh"
#include "report/table.hh"
#include "stats/stat_table.hh"
#include "support/strfmt.hh"
#include "workloads/registry.hh"

#ifndef CAPO_GOLDEN_DIR
#error "golden_test needs CAPO_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace capo {
namespace {

bool
regenerating()
{
    const char *env = std::getenv("CAPO_REGEN_GOLDEN");
    return env != nullptr && std::string(env) == "1";
}

std::string
goldenPath(const std::string &name)
{
    return std::string(CAPO_GOLDEN_DIR) + "/" + name;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::stringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

void
writeFile(const std::string &path, const std::string &contents)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << contents;
}

bool
parseNumber(const std::string &token, double &value)
{
    if (token.empty())
        return false;
    char *end = nullptr;
    value = std::strtod(token.c_str(), &end);
    return end != nullptr && *end == '\0';
}

std::vector<std::string>
splitCells(const std::string &line)
{
    std::vector<std::string> out;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ','))
        out.push_back(cell);
    return out;
}

/**
 * Numeric-tolerant equality: cell-by-cell, numbers at relative 1e-9,
 * everything else exact. Returns a human-readable location of the
 * first difference, or empty when equal.
 */
std::string
diffTables(const std::string &expected, const std::string &actual)
{
    std::stringstream es(expected), as(actual);
    std::string eline, aline;
    int line_no = 0;
    for (;;) {
        const bool have_e = static_cast<bool>(std::getline(es, eline));
        const bool have_a = static_cast<bool>(std::getline(as, aline));
        ++line_no;
        if (!have_e && !have_a)
            return "";
        if (have_e != have_a) {
            return support::concat("line ", line_no, ": ",
                                   have_e ? "missing from actual"
                                          : "extra in actual");
        }
        const auto ecells = splitCells(eline);
        const auto acells = splitCells(aline);
        if (ecells.size() != acells.size()) {
            return support::concat("line ", line_no, ": ",
                                   ecells.size(), " vs ",
                                   acells.size(), " cells");
        }
        for (std::size_t c = 0; c < ecells.size(); ++c) {
            double ev, av;
            if (parseNumber(ecells[c], ev) &&
                parseNumber(acells[c], av)) {
                const double scale =
                    std::max(std::abs(ev), std::abs(av));
                if (std::abs(ev - av) > 1e-9 * std::max(scale, 1e-300))
                    return support::concat("line ", line_no, " cell ",
                                           c + 1, ": ", ecells[c],
                                           " vs ", acells[c]);
            } else if (ecells[c] != acells[c]) {
                return support::concat("line ", line_no, " cell ",
                                       c + 1, ": '", ecells[c],
                                       "' vs '", acells[c], "'");
            }
        }
    }
}

/** Diff @p actual against the golden file @p name; @p exact demands
 *  byte equality instead of the numeric tolerance. */
void
expectMatchesGolden(const std::string &name, const std::string &actual,
                    bool exact = false)
{
    const auto path = goldenPath(name);
    if (regenerating()) {
        writeFile(path, actual);
        std::cerr << "regenerated " << path << "\n";
        return;
    }
    std::string expected;
    if (!readFile(path, expected)) {
        writeFile(path + ".actual", actual);
        FAIL() << "missing golden file " << path
               << " — run CAPO_REGEN_GOLDEN=1 ./golden_test and "
                  "commit it (current output saved as .actual)";
    }
    auto diff = diffTables(expected, actual);
    if (diff.empty() && exact && expected != actual)
        diff = "bytes differ within the numeric tolerance";
    if (!diff.empty()) {
        writeFile(path + ".actual", actual);
        FAIL() << name << " diverged from golden (" << diff
               << "); current output saved to " << path
               << ".actual — if the change is intentional, regen "
                  "with CAPO_REGEN_GOLDEN=1";
    }
}

// ---------------------------------------------------------------------
// fig01: suite-wide LBO geomean curve at a fixed seed.

TEST(GoldenTest, Fig01SuiteLboGeomean)
{
    harness::LboSweepOptions sweep;
    sweep.factors = {2.0, 3.0};
    sweep.collectors = gc::productionCollectors();
    sweep.base.iterations = 2;
    sweep.base.invocations = 2;
    sweep.base.time_limit_sec = 300;
    sweep.base.jobs = 2;  // any value: results are jobs-invariant

    std::vector<harness::WorkloadLbo> per_workload;
    for (const char *name : {"fop", "luindex"}) {
        per_workload.push_back(
            harness::runLboSweep(workloads::byName(name), sweep));
    }
    const auto points = harness::aggregateSuiteLbo(per_workload, sweep);

    std::stringstream out;
    out << "collector,factor,plotted,completed,wall_geomean,"
           "cpu_geomean\n";
    for (const auto &p : points) {
        out << p.collector << "," << support::general(p.factor, 12)
            << "," << (p.plotted ? 1 : 0) << "," << p.completed << ","
            << support::general(p.wall_geomean, 12) << ","
            << support::general(p.cpu_geomean, 12) << "\n";
    }
    expectMatchesGolden("fig01_suite_lbo.csv", out.str());
}

// ---------------------------------------------------------------------
// tab03: the shipped nominal-statistics table (value, rank, score).

TEST(GoldenTest, Tab03NominalStats)
{
    const auto table = stats::shippedStats();
    std::stringstream out;
    out << "workload,metric,value,score,rank\n";
    for (const auto &workload : table.workloads()) {
        for (const auto &info : stats::catalog()) {
            const auto value = table.get(workload, info.id);
            if (!value)
                continue;
            const auto rs = table.rankScore(workload, info.id);
            out << workload << "," << info.code << ","
                << support::general(*value, 12) << "," << rs.score
                << "," << rs.rank << "\n";
        }
    }
    expectMatchesGolden("tab03_nominal_stats.csv", out.str());
}

// ---------------------------------------------------------------------
// figA: post-GC heap timeline of one fixed invocation.

TEST(GoldenTest, FigAHeapTimeline)
{
    harness::ExperimentOptions options;
    options.iterations = 2;
    options.time_limit_sec = 300;
    harness::Runner runner(options);
    const auto &fop = workloads::byName("fop");
    const auto run =
        runner.runOnce(fop, gc::Algorithm::G1, fop.gc.gmd_mb * 2.0, 0);
    ASSERT_TRUE(run.usable());

    std::stringstream out;
    metrics::exportHeapTimelineCsv(run.log, out);
    expectMatchesGolden("figA_heap_timeline.csv", out.str());
}

// ---------------------------------------------------------------------
// Latency sweep: runLatencySweep's cell quantiles, hex-exact. Figure
// goldens go through percentileCurve; this pins the sweep's own
// summaries (simple, arrival-stamped and metered) to the bit.

TEST(GoldenTest, LatencySweepQuantilesExact)
{
    harness::LatencySweepOptions sweep;
    sweep.factors = {2.0};
    sweep.collectors = {gc::Algorithm::G1, gc::Algorithm::Zgc};
    // figA_latency_all's quick preset.
    sweep.base.invocations = 1;
    sweep.base.iterations = 2;
    sweep.base.time_limit_sec = 300;
    const auto result = harness::runLatencySweep({"cassandra", "jme"}, sweep);

    std::stringstream out;
    out << "workload,collector,factor,ok,requests,p50,p99,p999,"
           "intended_p99,metered_p50,metered_p999\n";
    for (const auto &cell : result.cells) {
        out << cell.workload << "," << cell.collector << ","
            << support::general(cell.factor, 12) << ","
            << (cell.ok ? 1 : 0) << "," << cell.requests.size();
        for (double v : {cell.p50_ns, cell.p99_ns, cell.p999_ns,
                         cell.intended_p99_ns, cell.metered_p50_ns,
                         cell.metered_p999_ns})
            out << "," << report::encodeDouble(v);
        out << "\n";
    }
    expectMatchesGolden("latency_sweep.csv", out.str(), /*exact=*/true);
}

// ---------------------------------------------------------------------
// Registry-driven snapshots: experiments run hermetically through
// runRegistered (Discard-mode sink, no filesystem), and the typed
// result tables they put in the store are the snapshot — the same
// CSVs `capo-bench run <name> --artifacts` would land on disk.

/** Run a registered experiment and return one store table as CSV. */
std::string
registryTableCsv(const std::string &experiment_name,
                 const std::string &table_name,
                 const std::vector<std::string> &args)
{
    const report::Experiment *experiment =
        report::ExperimentRegistry::instance().find(experiment_name);
    if (experiment == nullptr) {
        ADD_FAILURE() << experiment_name
                      << " is not in the experiment registry";
        return "";
    }
    report::ArtifactSink sink(".",
                              report::ArtifactSink::Mode::Discard);
    report::ResultStore store;
    // Experiment bodies print their ASCII tables to stdout; capture
    // that so test output stays readable.
    std::stringstream stdout_capture;
    std::streambuf *old_buf = std::cout.rdbuf(stdout_capture.rdbuf());
    const int code =
        report::runRegistered(*experiment, args, sink, store);
    std::cout.rdbuf(old_buf);
    EXPECT_EQ(code, 0) << experiment_name << " exited nonzero";

    const report::ResultTable *table = store.find(table_name);
    if (table == nullptr) {
        ADD_FAILURE() << experiment_name << " produced no table '"
                      << table_name << "'";
        return "";
    }
    std::stringstream out;
    table->writeCsv(out);
    return out.str();
}

TEST(GoldenTest, Fig02MmuTableFromRegistry)
{
    expectMatchesGolden(
        "fig02_mmu.csv",
        registryTableCsv("fig02_mmu_pauses", "mmu", {}));
}

TEST(GoldenTest, Tab01MetricCatalogFromRegistry)
{
    expectMatchesGolden(
        "tab01_metric_catalog.csv",
        registryTableCsv("tab01_metric_catalog", "metric_catalog", {}));
}

TEST(GoldenTest, ExtOpenLoopTableFromRegistry)
{
    // The open-loop comparison table: closed-loop synthesis vs live
    // open-loop traffic, static vs adaptive pacing, two load factors.
    // Committing it pins the acceptance gaps (arrival p99 >= service
    // p99; adaptive utility > static in a saturating regime) into the
    // diffable record.
    expectMatchesGolden(
        "ext_openloop.csv",
        registryTableCsv("ext_openloop_pacing", "openloop", {}));
}

// ---------------------------------------------------------------------
// The plan experiments, byte-exact: one small plan per kind goes
// through planArgs and runRegistered, the path runbms takes, and must
// write the CSV files runbms wrote for it when each kind had its own
// handler there. The goldens are those files.

/** Run @p plan_text's experiment with artifacts on (a Memory sink:
 *  nothing reaches disk) and return its files by path. */
std::map<std::string, std::string>
planArtifacts(const std::string &plan_text)
{
    const auto plan = harness::parsePlan(plan_text);
    const report::Experiment *experiment =
        report::ExperimentRegistry::instance().find(
            harness::planKindName(plan.kind));
    if (experiment == nullptr) {
        ADD_FAILURE() << harness::planKindName(plan.kind)
                      << " is not in the experiment registry";
        return {};
    }
    auto args = harness::planArgs(plan);
    args.push_back("--artifacts=.");
    report::ArtifactSink sink(".", report::ArtifactSink::Mode::Memory);
    report::ResultStore store;
    std::stringstream stdout_capture;
    std::streambuf *old_buf = std::cout.rdbuf(stdout_capture.rdbuf());
    const int code = report::runRegistered(*experiment, args, sink, store);
    std::cout.rdbuf(old_buf);
    EXPECT_EQ(code, 0);
    EXPECT_EQ(store.names().size(), 1u) << "one typed table per plan";

    std::map<std::string, std::string> files;
    for (const auto &record : sink.artifacts()) {
        EXPECT_TRUE(record.ok) << record.path;
        files[record.path] = sink.payload(record.path);
    }
    return files;
}

/** Each written file against its golden, and no file unaccounted. */
void
expectPlanGoldens(
    const std::map<std::string, std::string> &files,
    const std::vector<std::pair<std::string, std::string>> &goldens)
{
    EXPECT_EQ(files.size(), goldens.size());
    for (const auto &[path, golden] : goldens) {
        const auto it = files.find(path);
        if (it == files.end()) {
            ADD_FAILURE() << "plan wrote no " << path;
            continue;
        }
        expectMatchesGolden(golden, it->second, /*exact=*/true);
    }
}

TEST(GoldenTest, LboPlanMatchesRunbmsExact)
{
    // kick-the-tires-sized, under faults with retries: fop's cells
    // quarantine at 2x, one at 4x, so the CSVs carry the gaps.
    expectPlanGoldens(planArtifacts("experiment   = lbo\n"
                                    "workloads    = fop, luindex\n"
                                    "collectors   = serial, g1\n"
                                    "heap_factors = 2, 4\n"
                                    "iterations   = 2\n"
                                    "invocations  = 1\n"
                                    "faults       = alloc=1e-4, "
                                    "gc=0.005, timer=0.05\n"
                                    "fault_seed   = 11\n"
                                    "retries      = 2\n"),
                      {{"lbo_fop.csv", "plan_lbo_fop.csv"},
                       {"lbo_luindex.csv", "plan_lbo_luindex.csv"}});
}

TEST(GoldenTest, LatencyPlanMatchesRunbmsExact)
{
    expectPlanGoldens(planArtifacts("experiment   = latency\n"
                                    "workloads    = jme\n"
                                    "collectors   = g1, zgc\n"
                                    "heap_factors = 2\n"
                                    "iterations   = 2\n"),
                      {{"latency_jme_G1_2.0x.csv",
                        "plan_latency_jme_g1.csv"},
                       {"latency_jme_ZGC*_2.0x.csv",
                        "plan_latency_jme_zgc.csv"}});
}

TEST(GoldenTest, OpenLoopPlanMatchesRunbmsExact)
{
    expectPlanGoldens(planArtifacts("experiment   = openloop\n"
                                    "workloads    = jme\n"
                                    "collectors   = shenandoah\n"
                                    "heap_factors = 2\n"
                                    "rate         = 0.5, 1.2\n"
                                    "iterations   = 2\n"),
                      {{"openloop.csv", "plan_openloop.csv"}});
}

TEST(GoldenTest, MinHeapPlanMatchesRunbmsExact)
{
    expectPlanGoldens(planArtifacts("experiment   = minheap\n"
                                    "workloads    = fop, luindex\n"
                                    "collectors   = serial, g1\n"
                                    "iterations   = 2\n"
                                    "invocations  = 1\n"),
                      {{"minheap.csv", "plan_minheap.csv"}});
}

TEST(GoldenTest, EveryBenchAliasIsRegistered)
{
    // The CMake alias targets and the registry must agree: a bench
    // main that bypasses the registry would silently fall out of
    // capo-bench, the golden snapshots and the CI smoke sweep.
    for (const char *name :
         {"fig01_lbo_geomean", "fig02_mmu_pauses",
          "fig03_latency_cassandra", "fig04_pca", "fig05_lbo_cases",
          "fig06_latency_h2", "tab01_metric_catalog",
          "tab02_determinant", "tab03_nominal_all",
          "tab04_arch_sensitivity", "figA_lbo_per_benchmark",
          "figA_heap_timeline", "figA_latency_all", "tabA_minheap",
          "tabB_characterization", "tabC_bytecode", "ext_footprint",
          "ext_criticaljops", "ext_openloop_pacing",
          "ablation_collectors"}) {
        EXPECT_NE(report::ExperimentRegistry::instance().find(name),
                  nullptr)
            << name << " missing from the experiment registry";
    }
}

} // namespace
} // namespace capo
