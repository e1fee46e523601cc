#include "gc/factory.hh"

#include <algorithm>
#include <cctype>

#include "gc/concurrent_collector.hh"
#include "gc/g1_collector.hh"
#include "gc/stw_collector.hh"
#include "support/logging.hh"

namespace capo::gc {

const char *
algorithmName(Algorithm algorithm)
{
    switch (algorithm) {
      case Algorithm::Serial:
        return "Serial";
      case Algorithm::Parallel:
        return "Parallel";
      case Algorithm::G1:
        return "G1";
      case Algorithm::Shenandoah:
        return "Shen.";
      case Algorithm::Zgc:
        return "ZGC*";
      case Algorithm::GenZgc:
        return "GenZGC*";
    }
    return "?";
}

bool
tryAlgorithmFromName(const std::string &name, Algorithm &out)
{
    std::string lower;
    for (char c : name)
        lower += static_cast<char>(std::tolower(c));
    // Drop the no-compressed-pointers marker if present.
    while (!lower.empty() && (lower.back() == '*' || lower.back() == '.'))
        lower.pop_back();
    if (lower == "serial")
        out = Algorithm::Serial;
    else if (lower == "parallel")
        out = Algorithm::Parallel;
    else if (lower == "g1")
        out = Algorithm::G1;
    else if (lower == "shenandoah" || lower == "shen")
        out = Algorithm::Shenandoah;
    else if (lower == "zgc")
        out = Algorithm::Zgc;
    else if (lower == "genzgc" || lower == "generational-zgc")
        out = Algorithm::GenZgc;
    else
        return false;
    return true;
}

std::vector<Algorithm>
productionCollectors()
{
    return {Algorithm::Serial, Algorithm::Parallel, Algorithm::G1,
            Algorithm::Shenandoah, Algorithm::Zgc};
}

std::vector<Algorithm>
allCollectors()
{
    auto list = productionCollectors();
    list.push_back(Algorithm::GenZgc);
    return list;
}

bool
usesUncompressedPointers(Algorithm algorithm)
{
    return algorithm == Algorithm::Zgc || algorithm == Algorithm::GenZgc;
}

std::unique_ptr<runtime::CollectorRuntime>
makeCollector(Algorithm algorithm, double pointer_footprint,
              const GcTuning *tuning_override)
{
    CAPO_ASSERT(pointer_footprint >= 0.5,
                "implausible pointer footprint ratio");
    // Workloads where disabling compressed pointers *shrinks* the heap
    // requirement exist (cassandra); footprint is still clamped >= 1
    // because capacity above -Xmx is never created.
    const double zgc_footprint = std::max(1.0, pointer_footprint);

    auto pick = [&](GcTuning def) {
        return tuning_override ? *tuning_override : def;
    };

    switch (algorithm) {
      case Algorithm::Serial:
        return std::make_unique<StwCollector>("Serial", 1998,
                                              pick(serialTuning()));
      case Algorithm::Parallel:
        return std::make_unique<StwCollector>("Parallel", 2005,
                                              pick(parallelTuning()));
      case Algorithm::G1:
        return std::make_unique<G1Collector>(pick(g1Tuning()));
      case Algorithm::Shenandoah:
        return std::make_unique<ConcurrentCollector>(
            "Shen.", 2014, pick(shenandoahTuning()));
      case Algorithm::Zgc:
        return std::make_unique<ConcurrentCollector>(
            "ZGC*", 2018, pick(zgcTuning()), zgc_footprint);
      case Algorithm::GenZgc:
        return std::make_unique<ConcurrentCollector>(
            "GenZGC*", 2023, pick(genZgcTuning()), zgc_footprint);
    }
    CAPO_PANIC("unhandled collector algorithm");
}

} // namespace capo::gc
