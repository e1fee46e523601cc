#include "harness/plan_file.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>

#include "support/logging.hh"
#include "support/strfmt.hh"
#include "workloads/plans.hh"
#include "workloads/registry.hh"

namespace capo::harness {

namespace {

std::string
trim(const std::string &text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

std::string
lower(std::string text)
{
    for (auto &c : text)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return text;
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        item = trim(item);
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

template <typename... Args>
[[noreturn]] void
fail(int line, Args &&...args)
{
    std::string message =
        line > 0 ? support::concat("plan file line ", line, ": ")
                 : std::string();
    message += support::concat(std::forward<Args>(args)...);
    throw ParseError(line, message);
}

/** @{ Guarded numeric conversions: the whole value must parse and
 *  stay in range, else ParseError. The unguarded std::stoi calls
 *  these replaced crashed the executor on inputs like "5x" or
 *  "99999999999999999999". */
int
parseInt(const std::string &value, int line, const char *what)
{
    try {
        std::size_t pos = 0;
        const int out = std::stoi(value, &pos);
        if (pos != value.size())
            fail(line, "bad ", what, " '", value, "'");
        return out;
    } catch (const ParseError &) {
        throw;
    } catch (...) {
        fail(line, "bad ", what, " '", value, "'");
    }
}

std::uint64_t
parseU64(const std::string &value, int line, const char *what)
{
    try {
        std::size_t pos = 0;
        const std::uint64_t out = std::stoull(value, &pos);
        if (pos != value.size() || value.front() == '-')
            fail(line, "bad ", what, " '", value, "'");
        return out;
    } catch (const ParseError &) {
        throw;
    } catch (...) {
        fail(line, "bad ", what, " '", value, "'");
    }
}

double
parseDouble(const std::string &value, int line, const char *what)
{
    try {
        std::size_t pos = 0;
        const double out = std::stod(value, &pos);
        // stod accepts "nan" and "inf"; no plan value means either,
        // and an infinite rate or a NaN burst spins the run forever.
        if (pos != value.size() || !std::isfinite(out))
            fail(line, "bad ", what, " '", value, "'");
        return out;
    } catch (const ParseError &) {
        throw;
    } catch (...) {
        fail(line, "bad ", what, " '", value, "'");
    }
}
/** @} */

/** Largest heap or load factor. Each scales a finite base (a
 *  workload's minimum heap, the lanes' saturation rate), and far
 *  enough past it the derived heap or arrival rate overflows to
 *  infinity: an infinite rate draws zero gaps and never ends its
 *  cell. No experiment comes near a million times either base. */
constexpr double kMaxFactor = 1e6;

/** @{ Bounds by run cost: an open-loop cell takes 1 to 2 s at load
 *  factor 100 and minutes at 1e4; fop traces in 7x its untraced time
 *  at a 0.1 sim-ms metrics_interval, and 1e-9 would run for days. */
constexpr double kMaxLoadFactor = 100;
constexpr double kMinMetricsInterval = 0.1;
/** @} */

std::vector<double>
parseFactors(const std::string &value, int line, const char *what,
             const char *key, double max = kMaxFactor)
{
    std::vector<double> out;
    for (const auto &item : splitList(value)) {
        out.push_back(parseFactor(item, what, line));
        if (out.back() > max)
            fail(line, what, " must be at most ", max, ", got ", item);
    }
    if (out.empty())
        fail(line, "empty ", key);
    return out;
}

std::vector<std::string>
resolveWorkloads(const std::string &value, int line)
{
    const std::string spec = lower(trim(value));
    if (spec == "all")
        return workloads::names();
    if (spec == "latency") {
        std::vector<std::string> out;
        for (const auto *d : workloads::latencySensitive())
            out.push_back(d->name);
        return out;
    }
    std::vector<std::string> out;
    for (const auto &name : splitList(value))
        out.push_back(resolveWorkload(name, line).name);
    if (out.empty())
        fail(line, "empty workload list");
    return out;
}

std::vector<gc::Algorithm>
resolveCollectors(const std::string &value, int line)
{
    const std::string spec = lower(trim(value));
    if (spec == "production")
        return gc::productionCollectors();
    if (spec == "all")
        return gc::allCollectors();
    std::vector<gc::Algorithm> out;
    for (const auto &name : splitList(value)) {
        gc::Algorithm algorithm;
        if (!gc::tryAlgorithmFromName(name, algorithm)) {
            fail(line, "unknown collector '", name,
                 "' (expected serial, parallel, g1, shenandoah, zgc "
                 "or genzgc)");
        }
        out.push_back(algorithm);
    }
    if (out.empty())
        fail(line, "empty collector list");
    return out;
}

/** A plan key its experiment takes as a flag (beyond the standard
 *  iterations, invocations, seed and jobs), with an empty plan's
 *  value. */
struct PlanKey
{
    const char *key;
    const char *empty;
    const char *help;
};

constexpr PlanKey kCommonKeys[] = {
    {"workloads", "all", "workload names, or all / latency"},
    {"collectors", "production", "collector names, or production / all"},
    {"heap_factors", "2", "heap factors (x min heap), in (0, 1e6]"},
    {"size", "default", "input size: small | default | large | vlarge"},
    {"trace_out", "", "Chrome/Perfetto trace JSON to write (empty = none)"},
    {"trace_categories", "all", "categories to trace, or all / none"},
    {"metrics_interval", "10",
     "counter sampling period in sim-ms: 0 (off) or >= 0.1"},
    {"faults", "none", "fault spec, e.g. 0.01 or alloc=0.01,gc=0.005"},
    {"fault_seed", "0", "fault-stream salt"},
    {"retries", "0", "extra attempts per faulty invocation"},
    {"checkpoint", "", "journal of completed cells (empty = none)"},
};

constexpr PlanKey kOpenLoopKeys[] = {
    {"arrival", "poisson", "arrival process: poisson | onoff | diurnal"},
    {"rate", "0.5,1.2",
     "load factors (1 = lane saturation), in (0, 100]"},
    {"burst", "4:0.3", "on/off rate ratio : duty cycle (onoff)"},
    {"pacing", "closed,static,adaptive", "modes to compare"},
};

std::vector<PlanKey>
keysOf(ExperimentPlan::Kind kind)
{
    std::vector<PlanKey> keys(std::begin(kCommonKeys),
                              std::end(kCommonKeys));
    if (kind == ExperimentPlan::Kind::OpenLoop)
        keys.insert(keys.end(), std::begin(kOpenLoopKeys),
                    std::end(kOpenLoopKeys));
    return keys;
}

/** A plan key's flag: `heap_factors` is `heap-factors`. */
std::string
flagName(std::string key)
{
    std::replace(key.begin(), key.end(), '_', '-');
    return key;
}

workloads::SizeConfig
resolveSize(const std::string &value, int line)
{
    const std::string spec = lower(trim(value));
    if (spec == "small")
        return workloads::SizeConfig::Small;
    if (spec == "default")
        return workloads::SizeConfig::Default;
    if (spec == "large")
        return workloads::SizeConfig::Large;
    if (spec == "vlarge")
        return workloads::SizeConfig::VLarge;
    fail(line, "unknown size '", value, "'");
}

} // namespace

double
parseFactor(const std::string &value, const char *what, int line)
{
    const double factor = parseDouble(trim(value), line, what);
    if (factor <= 0.0)
        fail(line, what, " must be positive, got ", value);
    if (factor > kMaxFactor)
        fail(line, what, " must be at most 1e6, got ", value);
    return factor;
}

const workloads::Descriptor &
resolveWorkload(const std::string &name, int line)
{
    if (!workloads::contains(name))
        fail(line, "unknown workload '", name, "'");
    return workloads::byName(name);
}

const char *
planKindName(ExperimentPlan::Kind kind)
{
    switch (kind) {
      case ExperimentPlan::Kind::Lbo:
        return "lbo";
      case ExperimentPlan::Kind::Latency:
        return "latency";
      case ExperimentPlan::Kind::MinHeap:
        return "minheap";
      case ExperimentPlan::Kind::OpenLoop:
        return "openloop";
    }
    return "?";
}

void
applyPlanKey(ExperimentPlan &plan, const std::string &key,
             const std::string &raw, int line_no)
{
    const std::string value = trim(raw);
    if (key == "experiment") {
        const std::string kind = lower(value);
        if (kind == "lbo")
            plan.kind = ExperimentPlan::Kind::Lbo;
        else if (kind == "latency")
            plan.kind = ExperimentPlan::Kind::Latency;
        else if (kind == "minheap")
            plan.kind = ExperimentPlan::Kind::MinHeap;
        else if (kind == "openloop")
            plan.kind = ExperimentPlan::Kind::OpenLoop;
        else
            fail(line_no, "unknown experiment '", value, "'");
    } else if (key == "workloads") {
        plan.workloads = resolveWorkloads(value, line_no);
    } else if (key == "collectors") {
        plan.collectors = resolveCollectors(value, line_no);
    } else if (key == "heap_factors") {
        plan.heap_factors =
            parseFactors(value, line_no, "heap factor", "heap_factors");
    } else if (key == "iterations") {
        plan.options.iterations = parseInt(value, line_no, "iterations");
        if (plan.options.iterations < 1)
            fail(line_no, "iterations must be >= 1, got ", value);
    } else if (key == "invocations") {
        plan.options.invocations =
            parseInt(value, line_no, "invocations");
        if (plan.options.invocations < 1)
            fail(line_no, "invocations must be >= 1, got ", value);
    } else if (key == "jobs") {
        const int jobs = parseInt(value, line_no, "jobs");
        if (jobs < 0) {
            fail(line_no, "jobs must be >= 0 (0 = all hardware "
                          "threads), got ",
                 value);
        }
        plan.options.jobs = jobs;
    } else if (key == "size") {
        plan.options.size = resolveSize(value, line_no);
    } else if (key == "seed") {
        plan.options.base_seed = parseU64(value, line_no, "seed");
    } else if (key == "trace_out") {
        plan.trace_out = value;
    } else if (key == "trace_categories") {
        trace::CategoryMask mask = 0;
        std::string error;
        if (!trace::tryParseCategories(value, mask, error))
            fail(line_no, error);
        plan.trace_categories = mask;
    } else if (key == "metrics_interval") {
        const double interval =
            parseDouble(value, line_no, "metrics_interval");
        if (interval != 0.0 && !(interval >= kMinMetricsInterval)) {
            fail(line_no, "metrics_interval must be 0 (off) or at least ",
                 kMinMetricsInterval, " ms, got ", value);
        }
        plan.options.metrics_interval_ms = interval;
    } else if (key == "faults") {
        std::string error;
        if (!fault::parseFaultSpec(value, plan.options.faults, error))
            fail(line_no, error);
    } else if (key == "fault_seed") {
        plan.options.faults.seed = parseU64(value, line_no, "fault_seed");
    } else if (key == "retries") {
        plan.options.retries = parseInt(value, line_no, "retries");
        if (plan.options.retries < 0)
            fail(line_no, "retries must be >= 0, got ", value);
    } else if (key == "checkpoint") {
        plan.checkpoint = value;
    } else if (key == "arrival") {
        if (!load::tryArrivalKindFromName(lower(value),
                                          &plan.arrival.kind)) {
            fail(line_no, "unknown arrival process '", value,
                 "' (expected poisson, onoff or diurnal)");
        }
    } else if (key == "rate") {
        plan.load_factors = parseFactors(value, line_no, "load factor",
                                         "rate list", kMaxLoadFactor);
    } else if (key == "burst") {
        const auto colon = value.find(':');
        if (colon == std::string::npos) {
            fail(line_no, "burst expects ratio:duty, got '", value,
                 "'");
        }
        const double ratio = parseDouble(trim(value.substr(0, colon)),
                                         line_no, "burst ratio");
        const double duty = parseDouble(trim(value.substr(colon + 1)),
                                        line_no, "burst duty");
        if (ratio < 1.0)
            fail(line_no, "burst ratio must be >= 1, got ", value);
        if (duty <= 0.0 || duty >= 1.0)
            fail(line_no, "burst duty must be in (0, 1), got ", value);
        plan.arrival.burst_ratio = ratio;
        plan.arrival.burst_duty = duty;
    } else if (key == "pacing") {
        plan.pacing_modes.clear();
        for (const auto &item : splitList(value)) {
            const std::string mode = lower(item);
            if (mode != "closed" && mode != "static" &&
                mode != "adaptive") {
                fail(line_no, "unknown pacing mode '", item,
                     "' (expected closed, static or adaptive)");
            }
            plan.pacing_modes.push_back(mode);
        }
        if (plan.pacing_modes.empty())
            fail(line_no, "empty pacing list");
    } else {
        fail(line_no, "unknown key '", key, "'");
    }
}

void
finishPlan(ExperimentPlan &plan)
{
    // Latency and open-loop experiments only make sense on
    // latency-sensitive workloads; filter silently so
    // "workloads = all" works.
    if (plan.kind != ExperimentPlan::Kind::Latency &&
        plan.kind != ExperimentPlan::Kind::OpenLoop)
        return;
    std::vector<std::string> filtered;
    for (const auto &name : plan.workloads) {
        if (workloads::byName(name).latency_sensitive)
            filtered.push_back(name);
    }
    if (filtered.empty()) {
        fail(0, planKindName(plan.kind),
             " experiment with no latency-sensitive workloads");
    }
    plan.workloads = filtered;
    if (plan.kind == ExperimentPlan::Kind::Latency)
        plan.options.trace_rate = true;
}

ExperimentPlan
parsePlan(const std::string &text)
{
    ExperimentPlan plan;
    plan.workloads = workloads::names();
    plan.collectors = gc::productionCollectors();

    std::stringstream stream(text);
    std::string line;
    int line_no = 0;
    while (std::getline(stream, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;

        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            fail(line_no, "expected key = value, got '", line, "'");
        }
        const std::string key = lower(trim(line.substr(0, eq)));
        const std::string value = trim(line.substr(eq + 1));
        applyPlanKey(plan, key, value, line_no);
        plan.settings.emplace_back(key, value);
    }
    finishPlan(plan);
    return plan;
}

ExperimentPlan
loadPlan(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fail(0, "cannot read plan file '", path, "'");
    std::stringstream buffer;
    buffer << in.rdbuf();
    return parsePlan(buffer.str());
}

void
addPlanFlags(ExperimentPlan::Kind kind, support::Flags &flags)
{
    for (const auto &key : keysOf(kind))
        flags.addString(flagName(key.key), key.empty, key.help);
    flags.addBool("resume", false,
                  "restore the cells journaled in --checkpoint instead "
                  "of re-running them");
}

ExperimentPlan
planFromFlags(ExperimentPlan::Kind kind, const support::Flags &flags,
              const ExperimentOptions &options)
{
    ExperimentPlan plan;
    plan.kind = kind;
    plan.options = options;
    for (const auto &key : keysOf(kind))
        applyPlanKey(plan, key.key, flags.getString(flagName(key.key)));
    finishPlan(plan);
    return plan;
}

std::vector<std::string>
planArgs(const ExperimentPlan &plan)
{
    auto keys = keysOf(plan.kind);
    for (const char *key : {"iterations", "invocations", "seed", "jobs"})
        keys.push_back({key, "", ""});
    std::vector<std::string> args;
    for (const auto &[key, value] : plan.settings) {
        for (const auto &known : keys) {
            if (key == known.key)
                args.push_back("--" + flagName(key) + "=" + value);
        }
    }
    return args;
}

} // namespace capo::harness
