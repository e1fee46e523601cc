/**
 * @file
 * Collector construction and enumeration.
 */

#ifndef CAPO_GC_FACTORY_HH
#define CAPO_GC_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "gc/tuning.hh"
#include "runtime/collector_runtime.hh"

namespace capo::gc {

/** The collector designs shipped with OpenJDK 21 (plus GenZGC). */
enum class Algorithm {
    Serial,
    Parallel,
    G1,
    Shenandoah,
    Zgc,
    GenZgc,
};

/** Short display name ("Serial", "ZGC*", ...) as used in the paper. */
const char *algorithmName(Algorithm algorithm);

/** Parse a name (case-insensitive) into @p out; false on unknown
 *  names, which every command line reports as a usage error (exit 2)
 *  and plan files as a ParseError. */
bool tryAlgorithmFromName(const std::string &name, Algorithm &out);

/**
 * The paper's five production collectors, in introduction order
 * (Figure 1 legend).
 */
std::vector<Algorithm> productionCollectors();

/** All collectors including the GenZGC extension. */
std::vector<Algorithm> allCollectors();

/** True for designs that run without compressed pointers (ZGC). */
bool usesUncompressedPointers(Algorithm algorithm);

/**
 * Build a collector instance.
 *
 * @param algorithm Which design.
 * @param pointer_footprint The workload's uncompressed/compressed
 *        footprint ratio (the paper's GMU/GMD); applied only to
 *        collectors without compressed-pointer support.
 * @param tuning_override Optional replacement tuning (ablations).
 */
std::unique_ptr<runtime::CollectorRuntime>
makeCollector(Algorithm algorithm, double pointer_footprint = 1.3,
              const GcTuning *tuning_override = nullptr);

} // namespace capo::gc

#endif // CAPO_GC_FACTORY_HH
