/**
 * @file
 * perfbench-capo: sweep one benchmark workload's grid over and over for
 * a host-time budget, check every result, and report host costs.
 *
 *   perfbench-capo --workload NAME --seed N --seconds S --trace 0|1
 *                  [--out DIR] [--reference FILE] [--cells N]
 *                  [--t0-ns NS] [--setup-only] [--write-reference]
 *
 * --seed is the experiments' base seed; the library sees only the grid
 * and options built from it. --t0-ns is the CLOCK_MONOTONIC time at
 * which the launcher started this process; set-up time runs from there
 * to the first cell. --trace 1 alternates untraced and traced sweeps
 * and adds per-layer self times and counts. --write-reference records
 * the seed's digests after checking the per-cell path against the
 * library's full-grid sweep functions.
 *
 * Progress goes to stderr; the last stdout line is one JSON object.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hh"
#include "gc/factory.hh"
#include "trace/hot_metrics.hh"
#include "workloads/plans.hh"

namespace {

using namespace capo;
using perfbench::Item;
using perfbench::SweepResult;
using perfbench::Tracer;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string out = ".";
    std::string reference;
    std::size_t cells = 0;
    std::int64_t t0_ns = -1;
    bool setup_only = false;
    bool write_reference = false;
};

const char *kUsage =
    "usage: perfbench-capo --workload lbo_sweep|latency_synth|"
    "openloop_live --seed N --seconds S --trace 0|1 [--out DIR] "
    "[--reference FILE] [--cells N] [--t0-ns NS] [--setup-only] "
    "[--write-reference]\n";

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            args.setup_only = true;
            continue;
        }
        if (flag == "--write-reference") {
            args.write_reference = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            args.trace = static_cast<int>(std::strtol(value.c_str(), &end,
                                                      10));
        } else if (flag == "--out") {
            args.out = value;
        } else if (flag == "--reference") {
            args.reference = value;
        } else if (flag == "--cells") {
            args.cells = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--t0-ns") {
            args.t0_ns = std::strtoll(value.c_str(), &end, 10);
        } else {
            return false;
        }
        if (end != nullptr && (*end != '\0' || value.empty()))
            return false;
    }
    return !args.workload.empty() && (args.trace == 0 || args.trace == 1) &&
           (args.seconds > 0.0 || args.setup_only ||
            args.write_reference);
}

/**
 * Reference digests: one line per seed, "<seed> <count> <hex>...", each
 * hex the low 32 bits of one item's digest in grid order.
 */
bool
loadReference(const std::string &path, std::uint64_t seed,
              std::vector<std::uint32_t> &digests)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::uint64_t line_seed = 0;
        std::size_t count = 0;
        if (line.empty() || line[0] == '#' ||
            !(fields >> line_seed >> count) || line_seed != seed)
            continue;
        std::string hex;
        while (fields >> hex) {
            digests.push_back(
                static_cast<std::uint32_t>(std::strtoul(hex.c_str(),
                                                        nullptr, 16)));
        }
        return digests.size() == count;
    }
    return false;
}

void
writeReference(const std::string &path, std::uint64_t seed,
               const std::vector<Item> &items)
{
    std::ostringstream entry;
    entry << seed << ' ' << items.size();
    char hex[16];
    for (const auto &item : items) {
        std::snprintf(hex, sizeof hex, " %08" PRIx32,
                      static_cast<std::uint32_t>(item.digest));
        entry << hex;
    }
    // Replace the seed's line in place, or append it.
    std::vector<std::string> lines;
    bool replaced = false;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            std::istringstream fields(line);
            std::uint64_t line_seed = 0;
            if (!line.empty() && line[0] != '#' && (fields >> line_seed) &&
                line_seed == seed) {
                line = entry.str();
                replaced = true;
            }
            lines.push_back(line);
        }
    }
    if (!replaced)
        lines.push_back(entry.str());
    std::ofstream out(path);
    for (const auto &line : lines)
        out << line << '\n';
}

/** Peak resident set of this process (VmHWM), MB. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** Linear-interpolation quantile of a sorted sample. */
double
quantileOf(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - static_cast<double>(lo)) *
                            (sorted[hi] - sorted[lo]);
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return quantileOf(values, 0.5);
}

/** Judges every item of every sweep against the first sweep (repeats
 *  must be bit-identical) and the committed reference, when present. */
class Judge
{
  public:
    explicit Judge(std::vector<std::uint32_t> reference)
        : reference_(std::move(reference))
    {
    }

    void
    operator()(const SweepResult &sweep)
    {
        if (first_.empty()) {
            for (const auto &item : sweep.items)
                first_.push_back(item.digest);
        }
        for (std::size_t i = 0; i < sweep.items.size(); ++i) {
            const auto &item = sweep.items[i];
            std::string why = item.why;
            if (!item.broken) {
                if (i >= first_.size() || first_[i] != item.digest)
                    why = "differs from this run's first sweep";
                else if (!reference_.empty() &&
                         (i >= reference_.size() ||
                          reference_[i] !=
                              static_cast<std::uint32_t>(item.digest)))
                    why = "differs from the committed reference";
            }
            ++attempted_;
            if (why.empty())
                continue;
            if (++failed_ <= 10)
                std::cerr << "FAILED " << item.key << ": " << why << "\n";
        }
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** One digest over the first sweep's items. */
    std::uint64_t
    combined() const
    {
        perfbench::Digest digest;
        for (auto d : first_)
            digest.add(d);
        return digest.value();
    }

  private:
    std::vector<std::uint32_t> reference_;
    std::vector<std::uint64_t> first_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Host seconds to build the set-ups for @p keys, once per key: the
 *  makeSetup + makeCollector the runner does and caches per key. */
double
buildSetups(const perfbench::Workload &workload,
            const std::vector<perfbench::SetupKey> &keys)
{
    const auto &options = workload.options();
    const std::int64_t begin = perfbench::nowNs();
    for (const auto &key : keys) {
        const auto setup =
            workloads::makeSetup(*key.workload, options.machine,
                                 options.size, options.iterations);
        const auto collector =
            gc::makeCollector(key.algorithm, setup.pointer_footprint);
    }
    return static_cast<double>(perfbench::nowNs() - begin) / 1e9;
}

void
printLayer(std::ostream &out, bool &first, const std::string &name,
           double value)
{
    out << (first ? "" : ", ") << '"' << name << "\": " << value;
    first = false;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t main_ns = perfbench::nowNs();
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << kUsage;
        return 2;
    }
    auto workload =
        perfbench::makeWorkload(args.workload, args.seed, args.cells);
    if (workload == nullptr) {
        std::cerr << "unknown workload '" << args.workload << "'\n"
                  << kUsage;
        return 2;
    }
    std::vector<std::uint32_t> reference;
    const bool judged = !args.reference.empty() &&
                        loadReference(args.reference, args.seed, reference);
    if (!judged)
        reference.clear();
    buildSetups(*workload, {workload->setupKeys().front()});
    const std::int64_t ready_ns = perfbench::nowNs();
    const double setup_s =
        static_cast<double>(ready_ns -
                            (args.t0_ns >= 0 ? args.t0_ns : main_ns)) /
        1e9;
    std::cout.precision(17);
    if (args.setup_only) {
        std::cout << "{\"setup_s\": " << setup_s << "}\n";
        return 0;
    }

    report::ArtifactSink sink(args.out);
    if (args.write_reference) {
        if (args.cells != 0 || args.reference.empty()) {
            std::cerr << "--write-reference needs the whole grid and "
                         "--reference\n";
            return 2;
        }
        workload->keepResults();
        const auto sweep = workload->sweep(nullptr, sink);
        Judge judge({});
        judge(sweep);
        const std::size_t mismatches = workload->crossCheck();
        if (judge.failed() > 0 || mismatches > 0) {
            std::cerr << judge.failed() << " broken items, " << mismatches
                      << " cells differ from the library's sweep\n";
            return 1;
        }
        writeReference(args.reference, args.seed, sweep.items);
        std::cerr << "recorded " << sweep.items.size() << " digests for "
                  << args.workload << " seed " << args.seed << "\n";
        return 0;
    }

    const bool traced = args.trace == 1;
    const double setups_s =
        traced ? buildSetups(*workload, workload->setupKeys()) : 0.0;
    Judge judge(reference);
    Tracer tracer;
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    std::vector<double> cell_ms;
    perfbench::Counts counts;
    trace::hot::Snapshot hot;
    const std::int64_t start_ns = perfbench::nowNs();
    for (;;) {
        const std::int64_t pass_ns = perfbench::nowNs();
        const auto plain = workload->sweep(nullptr, sink);
        std::cerr << "sweep " << untraced_s.size() + 1 << ": "
                  << plain.seconds << " s\n";
        judge(plain);
        untraced_s.push_back(plain.seconds);
        cell_ms.insert(cell_ms.end(), plain.cell_ms.begin(),
                       plain.cell_ms.end());
        if (traced) {
            trace::hot::setEnabled(true);
            const auto before = trace::hot::snapshot();
            const auto sweep = workload->sweep(&tracer, sink);
            const auto after = trace::hot::snapshot();
            trace::hot::setEnabled(false);
            judge(sweep);
            if (traced_s.empty()) {
                counts = sweep.counts;
                hot = after.since(before);
            }
            traced_s.push_back(sweep.seconds);
        }
        const std::int64_t now = perfbench::nowNs();
        // Start another pass only if it should end inside the budget.
        if (static_cast<double>(2 * now - pass_ns - start_ns) / 1e9 >
            args.seconds)
            break;
    }

    std::cerr << args.workload << " seed " << args.seed << ": "
              << untraced_s.size() << " sweeps of " << workload->cells()
              << " cells, digest " << std::hex << judge.combined()
              << std::dec
              << (judged ? " (judged against the committed reference)"
                         : " (unjudged: no committed reference)")
              << "\n";

    std::sort(cell_ms.begin(), cell_ms.end());
    const double p90 = quantileOf(cell_ms, 0.9);
    const auto tail = static_cast<std::uint64_t>(
        cell_ms.end() -
        std::upper_bound(cell_ms.begin(), cell_ms.end(), p90));
    const double sweep_s = median(untraced_s);

    std::ostringstream json;
    json.precision(17);
    json << "{\"setup_s\": " << setup_s << ", \"sweeps\": "
         << untraced_s.size() << ", \"sweep_s\": " << sweep_s
         << ", \"cell_ms_p50\": " << quantileOf(cell_ms, 0.5)
         << ", \"cell_ms_p90\": " << p90
         << ", \"cell_samples\": " << cell_ms.size()
         << ", \"cell_tail\": " << tail
         << ", \"peak_rss_mb\": " << peakRssMb()
         << ", \"attempted\": " << judge.attempted()
         << ", \"failed\": " << judge.failed()
         << ", \"judged\": " << (judged ? "true" : "false");
    if (traced) {
        tracer.writeCsv(args.out + "/spans_" + args.workload + ".csv");
        const double n = static_cast<double>(traced_s.size());
        auto self = tracer.selfSeconds();
        double exec_s = 0.0;
        double layers_s = 0.0;
        for (const auto &[layer, seconds] : self) {
            if (layer.rfind("runtime.exec.", 0) == 0)
                exec_s += seconds;
            if (layer.rfind("bench.", 0) != 0)
                layers_s += seconds;
        }
        double traced_total = 0.0;
        for (double s : traced_s)
            traced_total += s;
        const auto events = static_cast<double>(counts.events);
        const auto arrivals = static_cast<double>(counts.arrivals);
        bool first = true;
        json << ", \"layers\": {";
        printLayer(json, first, "runtime.exec_s", exec_s / n);
        for (const char *collector :
             {"serial", "parallel", "g1", "shenandoah", "zgc"}) {
            printLayer(json, first,
                       std::string("runtime.exec_s.") + collector,
                       self[std::string("runtime.exec.") + collector] / n);
        }
        printLayer(json, first, "sim.ns_per_event",
                   events > 0 ? exec_s / n * 1e9 / events : 0.0);
        printLayer(json, first, "sim.events", events);
        printLayer(json, first, "sim.timer_ops",
                   static_cast<double>(hot.counter(trace::hot::TimerOps)));
        printLayer(json, first, "gc.pauses",
                   static_cast<double>(hot.counter(trace::hot::GcPauses)));
        printLayer(json, first, "gc.collections",
                   static_cast<double>(counts.collections));
        printLayer(json, first, "runtime.alloc_stalls",
                   static_cast<double>(counts.alloc_stalls));
        printLayer(json, first, "runtime.invocations",
                   static_cast<double>(
                       hot.counter(trace::hot::InvocationsCompleted)));
        printLayer(json, first, "runtime.oom_cells",
                   static_cast<double>(counts.oom_cells));
        printLayer(json, first, "runtime.rate_segments",
                   static_cast<double>(counts.rate_segments));
        printLayer(json, first, "metrics.metered_s",
                   self["metrics.metered"] / n);
        printLayer(json, first, "metrics.quantile_s",
                   self["metrics.quantile"] / n);
        printLayer(json, first, "metrics.quantile_calls",
                   static_cast<double>(counts.quantile_calls));
        printLayer(json, first, "metrics.sorted_samples",
                   static_cast<double>(counts.sorted_samples));
        printLayer(json, first, "metrics.synth_s",
                   self["metrics.synth"] / n);
        printLayer(json, first, "metrics.requests",
                   static_cast<double>(counts.requests));
        printLayer(json, first, "metrics.lbo_s", self["metrics.lbo"] / n);
        printLayer(json, first, "load.arrivals", arrivals);
        printLayer(json, first, "load.completed",
                   static_cast<double>(counts.completed));
        printLayer(json, first, "load.shed",
                   static_cast<double>(counts.shed));
        printLayer(json, first, "load.shed_frac",
                   arrivals > 0 ? static_cast<double>(counts.shed) /
                                      arrivals
                                : 0.0);
        printLayer(json, first, "load.pacer_decisions",
                   static_cast<double>(counts.pacer_decisions));
        printLayer(json, first, "workloads.setup_s", setups_s);
        printLayer(json, first, "report.write_s", self["report.write"] / n);
        printLayer(json, first, "report.bytes",
                   static_cast<double>(counts.report_bytes));
        printLayer(json, first, "bench.closure_frac",
                   traced_total > 0 ? layers_s / traced_total : 0.0);
        printLayer(json, first, "bench.trace_overhead_frac",
                   median(traced_s) / sweep_s - 1.0);
        json << "}";
    }
    json << "}";
    std::cout << json.str() << std::endl;
    return 0;
}
