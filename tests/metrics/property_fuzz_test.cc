/**
 * @file
 * Randomized property tests over the methodology metrics: for
 * arbitrary (seeded) inputs, the defining invariants of LBO and
 * metered latency must hold, selection-based quantiles and the
 * single-sort metered latency must equal the sort-based originals bit
 * for bit, and the file-based export paths must round-trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "metrics/export.hh"
#include "metrics/latency.hh"
#include "metrics/lbo.hh"
#include "metrics/request_synth.hh"
#include "metrics/summary.hh"
#include "support/rng.hh"

namespace capo::metrics {
namespace {

class LboFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(LboFuzz, DistillationInvariantsHoldForRandomCosts)
{
    support::Rng rng(GetParam());
    LboAnalysis lbo;
    const char *collectors[] = {"A", "B", "C", "D"};
    for (const char *collector : collectors) {
        for (double factor : {1.0, 2.0, 4.0}) {
            RunCost cost;
            cost.wall = rng.uniform(1e8, 1e10);
            cost.cpu = cost.wall * rng.uniform(1.0, 16.0);
            cost.stw_wall = cost.wall * rng.uniform(0.0, 0.5);
            cost.stw_cpu = cost.cpu * rng.uniform(0.0, 0.5);
            lbo.add(collector, factor, cost);
        }
    }

    // The baselines are the minimum residues: every configuration's
    // residue is >= baseline, so every configuration's *total* is too
    // (overheads can never dip below the residue ratio, and the
    // configuration defining the baseline has overhead >= 1).
    double min_wall_overhead = 1e300;
    double min_cpu_overhead = 1e300;
    for (const char *collector : collectors) {
        for (double factor : lbo.factors(collector)) {
            const auto o = lbo.overhead(collector, factor);
            ASSERT_GE(o.wall, 1.0);
            ASSERT_GE(o.cpu, 1.0);
            min_wall_overhead = std::min(min_wall_overhead, o.wall);
            min_cpu_overhead = std::min(min_cpu_overhead, o.cpu);
        }
    }
    // Some configuration sits close to the baseline: its overhead is
    // exactly total/residue of the minimal-residue config.
    EXPECT_LT(min_wall_overhead, 1.0 / (1.0 - 0.5) + 1e-9);
    EXPECT_LT(min_cpu_overhead, 1.0 / (1.0 - 0.5) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LboFuzz,
                         ::testing::Values(1, 7, 42, 1337, 90210));

class MeteredFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(MeteredFuzz, MeteredDominatesSimpleAndLimitsHold)
{
    support::Rng rng(GetParam());
    LatencyRecorder rec;
    double t = 0.0;
    const int n = 500 + static_cast<int>(rng.uniformInt(2000));
    for (int i = 0; i < n; ++i) {
        // Bursty arrivals with occasional long gaps.
        t += rng.uniform() < 0.05 ? rng.exponential(5000.0)
                                  : rng.exponential(100.0);
        rec.record(t, t + rng.exponential(80.0));
    }

    std::vector<LatencyEvent> by_start = rec.events();
    std::sort(by_start.begin(), by_start.end(),
              [](const auto &a, const auto &b) {
                  return a.start < b.start;
              });

    for (double window : {0.0, 10.0, 1000.0, 50000.0}) {
        const auto synth = rec.syntheticStarts(window);
        const auto metered = rec.meteredLatencies(window);
        ASSERT_EQ(synth.size(), by_start.size());

        double prev = -1e300;
        for (std::size_t i = 0; i < synth.size(); ++i) {
            // Monotone synthetic starts within the observed span.
            ASSERT_GE(synth[i], prev - 1e-6);
            prev = synth[i];
            ASSERT_GE(synth[i], by_start.front().start - 1e-6);
            ASSERT_LE(synth[i], by_start.back().start + 1e-6);
            // Metered >= simple, event by event.
            ASSERT_GE(metered[i] + 1e-9, by_start[i].latency());
        }
    }

    // Tiny window: metered == simple.
    const auto tiny = rec.meteredLatencies(1e-9);
    for (std::size_t i = 0; i < tiny.size(); ++i)
        ASSERT_NEAR(tiny[i], by_start[i].latency(), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeteredFuzz,
                         ::testing::Values(3, 17, 99, 2024));

// ---------------------------------------------------------------------
// Bitwise equivalence of the selection-based summaries with the
// sort-based code they replaced.

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** The quantiles every check below asks for (ascending). */
const std::vector<double> kQs = {0.0, 0.5, 0.99, 0.999, 0.999999, 1.0};

/** Check quantiles()/quantile() against copy + sort + quantileSorted. */
void
expectQuantilesMatchSort(const std::vector<double> &values)
{
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const auto selected = quantiles(values, kQs);
    ASSERT_EQ(selected.size(), kQs.size());
    for (std::size_t i = 0; i < kQs.size(); ++i) {
        const double want = quantileSorted(sorted, kQs[i]);
        EXPECT_TRUE(sameBits(selected[i], want))
            << "n=" << values.size() << " q=" << kQs[i] << ": "
            << selected[i] << " vs " << want;
        EXPECT_TRUE(sameBits(quantile(values, kQs[i]), want))
            << "n=" << values.size() << " q=" << kQs[i];
    }
}

class QuantileFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(QuantileFuzz, SelectionMatchesSortBitForBit)
{
    support::Rng rng(GetParam());
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{7}, std::size_t{1000},
                          std::size_t{12345}}) {
        std::vector<double> heavy, ties, ascending, descending;
        for (std::size_t i = 0; i < n; ++i) {
            heavy.push_back(rng.exponential(1e6) *
                            (rng.uniform() < 0.01 ? 1e3 : 1.0));
            // A handful of distinct values: ties at every quantile.
            ties.push_back(static_cast<double>(rng.uniformInt(5)) * 0.1);
            ascending.push_back(static_cast<double>(i) * 1.5);
        }
        descending.assign(ascending.rbegin(), ascending.rend());
        expectQuantilesMatchSort(heavy);
        expectQuantilesMatchSort(ties);
        expectQuantilesMatchSort(ascending);
        expectQuantilesMatchSort(descending);
        expectQuantilesMatchSort(std::vector<double>(n, 42.25));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileFuzz,
                         ::testing::Values(5, 11, 77, 4096));

TEST(QuantileSelectionTest, PercentileCurveMatchesSort)
{
    support::Rng rng(8);
    std::vector<double> values;
    for (int i = 0; i < 5000; ++i)
        values.push_back(rng.exponential(2e5));
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const auto curve = percentileCurve(values);
    ASSERT_EQ(curve.size(), paperPercentiles().size());
    for (const auto &[p, ns] : curve)
        EXPECT_TRUE(sameBits(ns, quantileSorted(sorted, p))) << p;
}

/** The pre-selection meteredLatencies(): a pointer sort for the
 *  pairing plus syntheticStarts()' own sort of the start times. */
std::vector<double>
referenceMetered(const LatencyRecorder &rec, double window_ns)
{
    std::vector<const LatencyEvent *> by_start;
    for (const auto &e : rec.events())
        by_start.push_back(&e);
    std::sort(by_start.begin(), by_start.end(),
              [](const LatencyEvent *a, const LatencyEvent *b) {
                  return a->start < b->start;
              });
    const auto synth = rec.syntheticStarts(window_ns);
    std::vector<double> out;
    for (std::size_t i = 0; i < by_start.size(); ++i) {
        const double assumed = std::min(by_start[i]->start, synth[i]);
        out.push_back(by_start[i]->end - assumed);
    }
    return out;
}

void
expectMeteredMatchesReference(const LatencyRecorder &rec)
{
    for (double window : {0.0, 1e-9, 10.0, 1000.0, 50000.0, 5e6}) {
        const auto want = referenceMetered(rec, window);
        const auto got = rec.meteredLatencies(window);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(sameBits(got[i], want[i]))
                << "window " << window << " event " << i << ": "
                << got[i] << " vs " << want[i];
        }
    }
}

TEST_P(QuantileFuzz, MeteredMatchesTwoSortReferenceWithTiedStarts)
{
    support::Rng rng(GetParam());
    // Starts drawn from a few values, ends all distinct: a tie paired
    // with the wrong end would change the output.
    LatencyRecorder tied;
    for (int i = 0; i < 3000; ++i) {
        const double start =
            static_cast<double>(rng.uniformInt(40)) * 250.0;
        tied.record(start, start + rng.exponential(300.0));
    }
    expectMeteredMatchesReference(tied);

    // synthesizeRequests starts every lane at window_begin.
    const std::vector<sim::RateSegment> timeline = {
        {0.0, 4e8, 1.0}, {4e8, 4.5e8, 0.0}, {4.5e8, 1e9, 0.7}};
    workloads::RequestProfile profile;
    profile.enabled = true;
    profile.count = 4000;
    profile.lanes = 16;
    const auto synthesized = synthesizeRequests(
        timeline, 1.0, profile, 0.0, 1e9,
        support::Rng(static_cast<std::uint64_t>(GetParam())));
    expectMeteredMatchesReference(synthesized);
}

TEST(ExportFileTest, WriteCsvFileRoundTrips)
{
    const std::string path = "/tmp/capo_export_test.csv";
    LatencyRecorder rec;
    rec.record(0.0, 5.0);
    rec.record(10.0, 30.0);
    writeCsvFile(path, [&](std::ostream &out) {
        exportLatencyCsv(rec, 0.0, out);
    });

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "intended_ns,start_ns,end_ns,intended_lat_ns,simple_ns,metered_ns");
    int rows = 0;
    std::string line;
    while (std::getline(in, line))
        rows += !line.empty();
    EXPECT_EQ(rows, 2);
    std::remove(path.c_str());
}

TEST(ExportFileDeathTest, UnwritablePathIsFatal)
{
    EXPECT_EXIT(writeCsvFile("/nonexistent/dir/file.csv",
                             [](std::ostream &) {}),
                ::testing::ExitedWithCode(1), "cannot open");
}

} // namespace
} // namespace capo::metrics
