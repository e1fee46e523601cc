/**
 * @file
 * Tests for the experiment-definition file parser.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "harness/plan_file.hh"
#include "report/experiment.hh"

#ifndef CAPO_EXPERIMENTS_DIR
#error "plan_file_test needs CAPO_EXPERIMENTS_DIR (see tests/CMakeLists.txt)"
#endif

namespace capo::harness {
namespace {

/** The plan that @p args (a plan experiment's flags) describe, parsed
 *  the way the registry parses a plan experiment's command line. */
ExperimentPlan
planFromArgs(ExperimentPlan::Kind kind,
             const std::vector<std::string> &args)
{
    auto flags = report::standardFlags("plan");
    addPlanFlags(kind, flags);
    std::vector<const char *> argv = {planKindName(kind)};
    for (const auto &arg : args)
        argv.push_back(arg.c_str());
    std::string error;
    EXPECT_TRUE(flags.tryParse(static_cast<int>(argv.size()),
                               argv.data(), error))
        << error;
    const ExperimentOptions defaults;
    return planFromFlags(kind, flags,
                         report::optionsFromFlags(
                             flags, defaults.invocations,
                             defaults.iterations));
}

std::uint64_t
bits(double value)
{
    std::uint64_t out;
    std::memcpy(&out, &value, sizeof out);
    return out;
}

std::vector<std::uint64_t>
bits(const std::vector<double> &values)
{
    std::vector<std::uint64_t> out;
    for (double value : values)
        out.push_back(bits(value));
    return out;
}

/** Field for field, doubles by bit pattern. */
void
expectSamePlan(const ExperimentPlan &a, const ExperimentPlan &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.workloads, b.workloads);
    EXPECT_EQ(a.collectors, b.collectors);
    EXPECT_EQ(bits(a.heap_factors), bits(b.heap_factors));
    EXPECT_EQ(a.options.iterations, b.options.iterations);
    EXPECT_EQ(a.options.invocations, b.options.invocations);
    EXPECT_EQ(a.options.size, b.options.size);
    EXPECT_EQ(a.options.base_seed, b.options.base_seed);
    EXPECT_EQ(a.options.trace_rate, b.options.trace_rate);
    EXPECT_EQ(bits(a.options.time_limit_sec),
              bits(b.options.time_limit_sec));
    EXPECT_EQ(a.options.jobs, b.options.jobs);
    EXPECT_EQ(bits(a.options.metrics_interval_ms),
              bits(b.options.metrics_interval_ms));
    for (std::size_t i = 0; i < fault::kSiteCount; ++i) {
        EXPECT_EQ(bits(a.options.faults.rates[i]),
                  bits(b.options.faults.rates[i]))
            << fault::siteName(static_cast<fault::Site>(i));
    }
    EXPECT_EQ(a.options.faults.seed, b.options.faults.seed);
    EXPECT_EQ(a.options.retries, b.options.retries);
    EXPECT_EQ(bits(a.options.retry_backoff_ms),
              bits(b.options.retry_backoff_ms));
    EXPECT_EQ(a.trace_out, b.trace_out);
    EXPECT_EQ(a.trace_categories, b.trace_categories);
    EXPECT_EQ(a.checkpoint, b.checkpoint);
    EXPECT_EQ(a.arrival.kind, b.arrival.kind);
    EXPECT_EQ(bits(a.arrival.burst_ratio), bits(b.arrival.burst_ratio));
    EXPECT_EQ(bits(a.arrival.burst_duty), bits(b.arrival.burst_duty));
    EXPECT_EQ(bits(a.load_factors), bits(b.load_factors));
    EXPECT_EQ(a.pacing_modes, b.pacing_modes);
}

void
expectRoundTrips(const ExperimentPlan &plan)
{
    expectSamePlan(plan, planFromArgs(plan.kind, planArgs(plan)));
}

TEST(PlanFileTest, CommittedPlansRoundTripThroughArgs)
{
    int plans = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(CAPO_EXPERIMENTS_DIR)) {
        if (entry.path().extension() != ".capo")
            continue;
        SCOPED_TRACE(entry.path().string());
        expectRoundTrips(loadPlan(entry.path().string()));
        ++plans;
    }
    EXPECT_GE(plans, 7);
}

TEST(PlanFileTest, EveryKeyRoundTripsThroughArgs)
{
    // Every key off its default, with a seed above 2^63 (plan seeds
    // are u64) and doubles that have no short decimal.
    expectRoundTrips(parsePlan("experiment = openloop\n"
                               "workloads = lusearch, h2\n"
                               "collectors = shenandoah, genzgc\n"
                               "heap_factors = 1.1, 0.3\n"
                               "iterations = 3\n"
                               "invocations = 7\n"
                               "jobs = 0\n"
                               "size = small\n"
                               "seed = 18446744073709551615\n"
                               "trace_out = out dir/t.json\n"
                               "trace_categories = gc, fault\n"
                               "metrics_interval = 0.1\n"
                               "faults = alloc=1e-4, artifact=0.3\n"
                               "fault_seed = 9223372036854775809\n"
                               "retries = 4\n"
                               "checkpoint = run.ckpt\n"
                               "arrival = onoff\n"
                               "rate = 0.7, 100\n"
                               "burst = 2.5:0.1\n"
                               "pacing = adaptive, closed\n"));
    expectRoundTrips(parsePlan("experiment = latency\n"
                               "trace_categories = none\n"
                               "seed = 9223372036854775808\n"));
}

TEST(PlanFileTest, NoFlagsIsTheEmptyPlan)
{
    // `capo-bench run <kind>` with no flags runs an empty plan.
    for (auto kind :
         {ExperimentPlan::Kind::Lbo, ExperimentPlan::Kind::Latency,
          ExperimentPlan::Kind::MinHeap,
          ExperimentPlan::Kind::OpenLoop}) {
        SCOPED_TRACE(planKindName(kind));
        expectSamePlan(
            parsePlan(std::string("experiment = ") + planKindName(kind)),
            planFromArgs(kind, {}));
    }
}

TEST(PlanFileTest, FlagValuesGoThroughTheKeyValidators)
{
    const auto rejects = [](const std::vector<std::string> &args,
                            const std::string &fragment) {
        try {
            planFromArgs(ExperimentPlan::Kind::OpenLoop, args);
            ADD_FAILURE() << "no ParseError for " << args.front();
        } catch (const ParseError &e) {
            EXPECT_NE(std::string(e.what()).find(fragment),
                      std::string::npos)
                << e.what();
            EXPECT_EQ(std::string(e.what()).find("plan file"),
                      std::string::npos)
                << "a flag is not a plan file line";
        }
    };
    rejects({"--heap-factors=1e308"}, "heap factor must be at most");
    rejects({"--rate=inf"}, "bad load factor");
    rejects({"--rate=1e4"}, "load factor must be at most 100");
    rejects({"--metrics-interval=1e-9"},
            "metrics_interval must be 0 (off) or at least 0.1");
    rejects({"--workloads=quake"}, "unknown workload");
    rejects({"--pacing=bogus"}, "unknown pacing mode");
    rejects({"--seed=-3"}, "bad seed");
    rejects({"--iterations=5x"}, "bad iterations");
    rejects({"--jobs=-1"}, "jobs must be >= 0");
    rejects({"--workloads=fop"}, "no latency-sensitive workloads");
}

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
    // Finite values whose run would take hours: an arrival rate 1e4
    // times lane saturation, or a sample every picosecond.
    expectParseError("rate = 0.5, 101\n",
                     "load factor must be at most 100");
    expectParseError("metrics_interval = 1e-9\n",
                     "metrics_interval must be 0 (off) or at least 0.1");
    expectParseError("metrics_interval = -1\n",
                     "metrics_interval must be 0 (off) or at least 0.1");
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
