/**
 * @file
 * Randomized property tests over the methodology metrics: for
 * arbitrary (seeded) inputs, the defining invariants of LBO and
 * metered latency must hold, selection-based quantiles must equal the
 * sort-based originals bit for bit, the smoothing core behind the
 * metered views must reproduce its sort-based reference byte for byte
 * (including inputs whose window edges tie), and the file-based export
 * paths must round-trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "metrics/export.hh"
#include "metrics/latency.hh"
#include "metrics/lbo.hh"
#include "metrics/request_synth.hh"
#include "metrics/summary.hh"
#include "support/csv.hh"
#include "support/logging.hh"
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

// ---------------------------------------------------------------------
// The smoothing core against independent code: the sort-based core it
// replaced, with pointer-sorted pairing and its own CSV rows.

/** The smoothing core as it was before the linear walk (window
 *  breakpoints std::sort'ed, R tabulated, then inverted), verbatim. */
std::vector<double>
referenceSmoothStarts(std::vector<double> starts, double window_ns)
{
    const std::size_t n = starts.size();
    if (n == 0)
        return {};

    const double t0 = starts.front();
    const double t1 = starts.back();
    const double span = t1 - t0;
    if (span <= 0.0)
        return starts;  // all simultaneous: nothing to smooth

    // A (positive) window below the span's floating-point resolution
    // smooths nothing; short-circuit to the identity rather than
    // sweeping ramps whose widths are dominated by rounding error.
    // (window_ns <= 0 selects full smoothing below.)
    if (window_ns > 0.0 && window_ns < span * 1e-9)
        return starts;

    // Full smoothing: uniform arrivals over the span. The grid is
    // endpoint-inclusive so that already-uniform arrivals map onto
    // themselves (metered == simple for a perfectly steady run).
    if (window_ns <= 0.0 || window_ns >= 2.0 * span) {
        std::vector<double> synth(n);
        for (std::size_t i = 0; i < n; ++i) {
            synth[i] = t0 + (static_cast<double>(i) + 0.5) /
                                static_cast<double>(n) * span;
        }
        return synth;
    }

    // Build the window-smoothed cumulative arrival function R(t):
    // piecewise linear, with slope changing by +-1/W at each event's
    // window edges. Mass falling outside the observed span is
    // reflected back inside (standard density boundary correction),
    // so R(t1) = n exactly and edge events are not biased early or
    // late — without this, the last events of a run would inherit a
    // spurious ~W/8 queueing delay.
    struct Breakpoint {
        double t;
        double slope_delta;
    };
    std::vector<Breakpoint> breaks;
    breaks.reserve(4 * n);
    const double half = window_ns / 2.0;
    const double unit_slope = 1.0 / window_ns;
    auto add_interval = [&](double lo, double hi) {
        if (hi <= lo)
            return;
        breaks.push_back({lo, unit_slope});
        breaks.push_back({hi, -unit_slope});
    };
    for (double s : starts) {
        const double a = s - half;
        const double b = s + half;
        add_interval(std::max(a, t0), std::min(b, t1));
        if (a < t0)
            add_interval(t0, t0 + (t0 - a));  // reflect left overflow
        if (b > t1)
            add_interval(t1 - (b - t1), t1);  // reflect right overflow
    }
    std::sort(breaks.begin(), breaks.end(),
              [](const Breakpoint &a, const Breakpoint &b) {
                  return a.t < b.t;
              });

    // Sweep to tabulate R at each breakpoint.
    std::vector<double> bp_t, bp_r;
    bp_t.reserve(breaks.size() + 1);
    bp_r.reserve(breaks.size() + 1);
    double slope = 0.0;
    double r = 0.0;
    double prev_t = t0;
    bp_t.push_back(t0);
    bp_r.push_back(0.0);
    for (const auto &b : breaks) {
        r += slope * (b.t - prev_t);
        slope += b.slope_delta;
        prev_t = b.t;
        bp_t.push_back(b.t);
        bp_r.push_back(r);
    }
    r += slope * (t1 - prev_t);
    bp_t.push_back(t1);
    bp_r.push_back(r);
    const double total = r;
    CAPO_ASSERT(total > 0.0, "smoothed arrival mass vanished");

    // Invert R at the normalized ranks (two-pointer; ranks ascend).
    std::vector<double> synth(n);
    std::size_t seg = 0;
    for (std::size_t i = 0; i < n; ++i) {
        // Midpoint ranks: an event sits at the centre of its own
        // smoothed arrival mass, so the identity (tiny-window) limit
        // is exact and residual error is bounded by a quarter of the
        // mean inter-arrival gap.
        const double target = (static_cast<double>(i) + 0.5) /
                              static_cast<double>(n) * total;
        while (seg + 1 < bp_r.size() && bp_r[seg + 1] < target)
            ++seg;
        const double r_lo = bp_r[seg];
        const double r_hi = seg + 1 < bp_r.size() ? bp_r[seg + 1] : total;
        const double t_lo = bp_t[seg];
        const double t_hi = seg + 1 < bp_t.size() ? bp_t[seg + 1] : t1;
        if (r_hi > r_lo) {
            synth[i] = t_lo + (target - r_lo) / (r_hi - r_lo) *
                                  (t_hi - t_lo);
        } else {
            synth[i] = t_hi;
        }
    }
    return synth;
}

/** The events in start order by a pointer sort (the pairing order
 *  eventsByStart() must reproduce). */
std::vector<const LatencyEvent *>
referenceByStart(const LatencyRecorder &rec)
{
    std::vector<const LatencyEvent *> by_start;
    for (const auto &e : rec.events())
        by_start.push_back(&e);
    std::sort(by_start.begin(), by_start.end(),
              [](const LatencyEvent *a, const LatencyEvent *b) {
                  return a->start < b->start;
              });
    return by_start;
}

std::vector<double>
referenceMetered(const std::vector<const LatencyEvent *> &by_start,
                 const std::vector<double> &synth)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < by_start.size(); ++i) {
        const double assumed = std::min(by_start[i]->start, synth[i]);
        out.push_back(by_start[i]->end - assumed);
    }
    return out;
}

/** The rows exportLatencyCsv() must write. */
std::string
referenceCsv(const std::vector<const LatencyEvent *> &by_start,
             const std::vector<double> &metered)
{
    std::ostringstream out;
    support::CsvWriter csv(out);
    csv.header({"intended_ns", "start_ns", "end_ns", "intended_lat_ns",
                "simple_ns", "metered_ns"});
    for (std::size_t i = 0; i < by_start.size(); ++i) {
        csv.beginRow();
        csv.cell(by_start[i]->intended);
        csv.cell(by_start[i]->start);
        csv.cell(by_start[i]->end);
        csv.cell(by_start[i]->intendedLatency());
        csv.cell(by_start[i]->latency());
        csv.cell(metered[i]);
        csv.endRow();
    }
    return out.str();
}

bool
sameBytes(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof a[0]) == 0);
}

/** Windows from below the span's resolution to full smoothing,
 *  including multiples of the 250 ns lattice below (mixed ties). */
const std::vector<double> kWindows = {0.0,   1e-9,  1.0,  10.0,
                                      250.0, 500.0, 1000.0, 4000.0,
                                      5e4,   5e6,   1e12};

/** syntheticStarts() and meteredLatencies() against the references,
 *  byte for byte, at every window. exportLatencyCsv() adds only row
 *  pairing and formatting to the metered view, so its bytes are checked
 *  at full smoothing and at one ramp window (the slow part is the text). */
void
expectMatchesReference(const LatencyRecorder &rec, const char *input)
{
    const auto by_start = referenceByStart(rec);
    std::vector<double> starts;
    for (const auto *e : by_start)
        starts.push_back(e->start);
    for (double window : kWindows) {
        SCOPED_TRACE(::testing::Message() << input << ", n " << rec.size()
                                          << ", window " << window);
        const auto synth = referenceSmoothStarts(starts, window);
        const auto metered = referenceMetered(by_start, synth);
        EXPECT_TRUE(sameBytes(rec.syntheticStarts(window), synth));
        EXPECT_TRUE(sameBytes(rec.meteredLatencies(window), metered));
        if (window != 0.0 && window != 1000.0)
            continue;
        std::ostringstream got;
        exportLatencyCsv(rec, window, got);
        const std::string want = referenceCsv(by_start, metered);
        EXPECT_TRUE(got.str().size() == want.size() &&
                    std::memcmp(got.str().data(), want.data(),
                                want.size()) == 0);
    }
}

/** Lattice starts (a multiple of @p step, drawn from @p values
 *  points), ends all distinct: a tie paired with the wrong end would
 *  change the output. */
LatencyRecorder
latticeStarts(support::Rng &rng, int n, std::uint64_t values, double step)
{
    LatencyRecorder rec;
    for (int i = 0; i < n; ++i) {
        const double start =
            static_cast<double>(rng.uniformInt(values)) * step;
        rec.record(start, start + rng.exponential(300.0));
    }
    return rec;
}

TEST_P(QuantileFuzz, MeteredMatchesTwoSortReferenceWithTiedStarts)
{
    support::Rng rng(GetParam());
    expectMatchesReference(latticeStarts(rng, 3000, 40, 250.0),
                           "250 ns lattice");

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
    expectMatchesReference(synthesized, "synthesizeRequests lanes");
}

TEST_P(QuantileFuzz, SmoothingMatchesSortReference)
{
    support::Rng rng(GetParam());
    LatencyRecorder bursty;
    double t = 0.0;
    for (int i = 0; i < 2000; ++i) {
        t += rng.uniform() < 0.05 ? rng.exponential(5000.0)
                                  : rng.exponential(100.0);
        bursty.record(t, t + rng.exponential(80.0));
    }
    expectMatchesReference(bursty, "bursty");
    expectMatchesReference(latticeStarts(rng, 200, 12, 1.0),
                           "integer lattice");
    // Near 2^52 the doubles are the integers: a 1 ns window rounds to
    // nothing around even starts, whose intervals the sort skipped.
    LatencyRecorder coarse;
    for (int i = 0; i < 200; ++i) {
        const double start =
            0x1p52 + static_cast<double>(rng.uniformInt(400));
        coarse.record(start, start + 1000.0);
    }
    expectMatchesReference(coarse, "starts near 2^52");
    for (int n = 1; n <= 4; ++n) {
        expectMatchesReference(latticeStarts(rng, n, 4, 250.0),
                               "short lattice");
        LatencyRecorder few;
        for (int i = 0; i < n; ++i) {
            const double start = rng.uniform(0.0, 5000.0);
            few.record(start, start + rng.exponential(300.0));
        }
        expectMatchesReference(few, "short");
    }
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
