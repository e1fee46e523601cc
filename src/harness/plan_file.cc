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
    std::string message = line > 0
                              ? support::concat("plan file line ",
                                                line, ": ")
                              : std::string("plan file: ");
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

double
parseFactor(const std::string &value, int line, const char *what)
{
    const double factor = parseDouble(value, line, what);
    if (factor <= 0.0)
        fail(line, what, " must be positive, got ", value);
    if (factor > kMaxFactor)
        fail(line, what, " must be at most 1e6, got ", value);
    return factor;
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
    for (const auto &name : splitList(value)) {
        if (!workloads::contains(name))
            fail(line, "unknown workload '", name, "'");
        out.push_back(name);
    }
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
            plan.heap_factors.clear();
            for (const auto &item : splitList(value)) {
                plan.heap_factors.push_back(
                    parseFactor(item, line_no, "heap factor"));
            }
            if (plan.heap_factors.empty())
                fail(line_no, "empty heap_factors");
        } else if (key == "iterations") {
            plan.options.iterations =
                parseInt(value, line_no, "iterations");
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
            plan.options.metrics_interval_ms =
                parseDouble(value, line_no, "metrics_interval");
            if (plan.options.metrics_interval_ms < 0.0)
                fail(line_no, "negative metrics_interval");
        } else if (key == "faults") {
            std::string error;
            if (!fault::parseFaultSpec(value, plan.options.faults,
                                       error))
                fail(line_no, error);
        } else if (key == "fault_seed") {
            plan.options.faults.seed =
                parseU64(value, line_no, "fault_seed");
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
            plan.load_factors.clear();
            for (const auto &item : splitList(value)) {
                plan.load_factors.push_back(
                    parseFactor(item, line_no, "load factor"));
            }
            if (plan.load_factors.empty())
                fail(line_no, "empty rate list");
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
                fail(line_no, "burst duty must be in (0, 1), got ",
                     value);
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

    // Latency and open-loop experiments only make sense on
    // latency-sensitive workloads; filter silently so
    // "workloads = all" works.
    if (plan.kind == ExperimentPlan::Kind::OpenLoop) {
        std::vector<std::string> filtered;
        for (const auto &name : plan.workloads) {
            if (workloads::byName(name).latency_sensitive)
                filtered.push_back(name);
        }
        if (filtered.empty()) {
            fail(0, "openloop experiment with no latency-sensitive "
                    "workloads");
        }
        plan.workloads = filtered;
    }
    if (plan.kind == ExperimentPlan::Kind::Latency) {
        std::vector<std::string> filtered;
        for (const auto &name : plan.workloads) {
            if (workloads::byName(name).latency_sensitive)
                filtered.push_back(name);
        }
        if (filtered.empty()) {
            fail(0, "latency experiment with no latency-sensitive "
                    "workloads");
        }
        plan.workloads = filtered;
        plan.options.trace_rate = true;
    }
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

} // namespace capo::harness
