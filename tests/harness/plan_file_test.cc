/**
 * @file
 * Tests for the experiment-definition file parser.
 */

#include <gtest/gtest.h>

#include "harness/plan_file.hh"

namespace capo::harness {
namespace {

TEST(PlanFileTest, DefaultsToFullSuiteLbo)
{
    const auto plan = parsePlan("");
    EXPECT_EQ(plan.kind, ExperimentPlan::Kind::Lbo);
    EXPECT_EQ(plan.workloads.size(), 22u);
    EXPECT_EQ(plan.collectors.size(), 5u);
    EXPECT_EQ(plan.heap_factors, std::vector<double>{2.0});
}

TEST(PlanFileTest, ParsesFullDefinition)
{
    const auto plan = parsePlan(R"(
        # a comment
        experiment   = minheap
        workloads    = lusearch, h2   # trailing comment
        collectors   = serial, zgc
        heap_factors = 1.5, 2, 6
        iterations   = 4
        invocations  = 7
        jobs         = 4
        size         = small
        seed         = 99
    )");
    EXPECT_EQ(plan.kind, ExperimentPlan::Kind::MinHeap);
    EXPECT_EQ(plan.workloads,
              (std::vector<std::string>{"lusearch", "h2"}));
    ASSERT_EQ(plan.collectors.size(), 2u);
    EXPECT_EQ(plan.collectors[0], gc::Algorithm::Serial);
    EXPECT_EQ(plan.collectors[1], gc::Algorithm::Zgc);
    EXPECT_EQ(plan.heap_factors, (std::vector<double>{1.5, 2.0, 6.0}));
    EXPECT_EQ(plan.options.iterations, 4);
    EXPECT_EQ(plan.options.invocations, 7);
    EXPECT_EQ(plan.options.size, workloads::SizeConfig::Small);
    EXPECT_EQ(plan.options.base_seed, 99u);
    EXPECT_EQ(plan.options.jobs, 4);
}

TEST(PlanFileTest, JobsKeyRoundTrip)
{
    // Default is serial; 0 means "all hardware threads".
    EXPECT_EQ(parsePlan("").options.jobs, 1);
    EXPECT_EQ(parsePlan("jobs = 0\n").options.jobs, 0);
    EXPECT_EQ(parsePlan("jobs = 16\n").options.jobs, 16);
}

TEST(PlanFileTest, LatencyFiltersToLatencySensitive)
{
    const auto plan = parsePlan("experiment = latency\n"
                                "workloads = all\n");
    EXPECT_EQ(plan.kind, ExperimentPlan::Kind::Latency);
    EXPECT_EQ(plan.workloads.size(), 9u);
    EXPECT_TRUE(plan.options.trace_rate);
}

TEST(PlanFileTest, ParsesOpenLoopKeys)
{
    const auto plan = parsePlan(R"(
        experiment = openloop
        workloads  = all
        arrival    = onoff
        rate       = 0.5, 0.9, 1.2
        burst      = 6 : 0.25
        pacing     = static, adaptive
    )");
    EXPECT_EQ(plan.kind, ExperimentPlan::Kind::OpenLoop);
    EXPECT_EQ(plan.workloads.size(), 9u); // latency-sensitive only
    EXPECT_EQ(plan.arrival.kind, load::ArrivalKind::OnOff);
    EXPECT_EQ(plan.load_factors, (std::vector<double>{0.5, 0.9, 1.2}));
    EXPECT_DOUBLE_EQ(plan.arrival.burst_ratio, 6.0);
    EXPECT_DOUBLE_EQ(plan.arrival.burst_duty, 0.25);
    EXPECT_EQ(plan.pacing_modes,
              (std::vector<std::string>{"static", "adaptive"}));
}

TEST(PlanFileTest, OpenLoopKeyJunkIsParseError)
{
    EXPECT_THROW(parsePlan("arrival = sawtooth\n"), ParseError);
    EXPECT_THROW(parsePlan("rate = 0.5, -1\n"), ParseError);
    EXPECT_THROW(parsePlan("rate = \n"), ParseError);
    EXPECT_THROW(parsePlan("burst = 4\n"), ParseError);
    EXPECT_THROW(parsePlan("burst = 0.5:0.3\n"), ParseError);
    EXPECT_THROW(parsePlan("burst = 4:1.5\n"), ParseError);
    EXPECT_THROW(parsePlan("pacing = closed, turbo\n"), ParseError);
    EXPECT_THROW(parsePlan("experiment = openloop\n"
                           "workloads = fop\n"),
                 ParseError); // no latency-sensitive workload
}

TEST(PlanFileTest, CollectorGroups)
{
    EXPECT_EQ(parsePlan("collectors = production\n").collectors.size(),
              5u);
    EXPECT_EQ(parsePlan("collectors = all\n").collectors.size(), 6u);
}

TEST(PlanFileTest, WorkloadGroups)
{
    EXPECT_EQ(parsePlan("workloads = latency\n").workloads.size(), 9u);
    EXPECT_EQ(parsePlan("workloads = all\n").workloads.size(), 22u);
}

/** parsePlan(text) must throw a ParseError mentioning @p needle. */
void
expectParseError(const std::string &text, const std::string &needle)
{
    try {
        parsePlan(text);
        FAIL() << "no ParseError for: " << text;
    } catch (const ParseError &e) {
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << "message \"" << e.what() << "\" lacks \"" << needle
            << "\"";
    }
}

TEST(PlanFileTest, RejectsMalformedInput)
{
    expectParseError("no equals sign here\n", "expected key = value");
    expectParseError("workloads = quake\n", "unknown workload");
    expectParseError("experiment = frobnicate\n", "unknown experiment");
    expectParseError("bogus_key = 1\n", "unknown key");
    expectParseError("heap_factors = soon\n", "bad heap factor");
    expectParseError("jobs = -2\n", "jobs must be >= 0");
    expectParseError("jobs = many\n", "bad jobs");
    EXPECT_THROW(loadPlan("/nonexistent/plan.capo"), ParseError);
}

TEST(PlanFileTest, RejectsMalformedNumericValues)
{
    // These crashed (uncaught std::invalid_argument / out_of_range)
    // before the conversions were guarded.
    expectParseError("iterations = abc\n", "bad iterations");
    expectParseError("iterations = 0\n", "iterations must be >= 1");
    expectParseError("invocations = 5x\n", "bad invocations");
    expectParseError("invocations = 99999999999999999999\n",
                     "bad invocations");
    expectParseError("seed = -3\n", "bad seed");
    expectParseError("seed = banana\n", "bad seed");
    expectParseError("heap_factors = 0\n",
                     "heap factor must be positive");
    expectParseError("retries = -1\n", "retries must be >= 0");
    expectParseError("faults = alloc=2.0\n", "rate");
    expectParseError("trace_categories = bogus\n",
                     "unknown trace category");
    // Non-finite values parse with stod but hang or corrupt a run: an
    // infinite or NaN rate spins the open-loop load generator, a NaN
    // heap factor runs a 0 MB heap.
    expectParseError("heap_factors = nan\n", "bad heap factor");
    expectParseError("heap_factors = inf\n", "bad heap factor");
    expectParseError("rate = nan\n", "bad load factor");
    expectParseError("rate = inf\n", "bad load factor");
    expectParseError("burst = nan:0.3\n", "bad burst ratio");
    expectParseError("burst = 4:nan\n", "bad burst duty");
    expectParseError("metrics_interval = inf\n", "bad metrics_interval");
    // Finite factors that overflow the derived rate or heap to infinity.
    expectParseError("rate = 1e308\n", "load factor must be at most");
    expectParseError("heap_factors = 1e308\n",
                     "heap factor must be at most");
}

TEST(PlanFileTest, ParsesResilienceKeys)
{
    const auto plan = parsePlan("faults = alloc=0.01,gc=0.005\n"
                                "fault_seed = 7\n"
                                "retries = 2\n"
                                "checkpoint = run.ckpt\n");
    EXPECT_TRUE(plan.options.faults.enabled());
    EXPECT_DOUBLE_EQ(plan.options.faults.rate(fault::Site::AllocOom),
                     0.01);
    EXPECT_DOUBLE_EQ(
        plan.options.faults.rate(fault::Site::GcPhaseAbort), 0.005);
    EXPECT_EQ(plan.options.faults.seed, 7u);
    EXPECT_EQ(plan.options.retries, 2);
    EXPECT_EQ(plan.checkpoint, "run.ckpt");
}

TEST(PlanFileTest, ParseErrorCarriesLineNumber)
{
    try {
        parsePlan("jobs = 1\n\nworkloads = quake\n");
        FAIL() << "no ParseError";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.line(), 3);
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos);
    }
}

} // namespace
} // namespace capo::harness
