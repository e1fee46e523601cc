/**
 * @file
 * Bench snapshots: the repo's committed performance trajectory.
 *
 * A `BenchSnapshot` is one machine-readable record of how fast a
 * registered experiment ran: wall time and throughput (cells/s,
 * invocations/s, sim-events/s) with the paper's own 95 % confidence
 * intervals, hot-tier histogram quantiles, the measured overhead of a
 * disabled hot-metric record, and a *calibration-normalized cost* —
 * elapsed time divided by the time of a fixed deterministic spin
 * measured on the same machine at the same moment. Raw throughput is
 * machine-bound; the normalized cost mostly cancels machine speed,
 * which is what lets a checked-in `BENCH_<name>.json` baseline written
 * on one host gate regressions measured on another.
 *
 * Snapshots are written through the ArtifactSink choke point (like
 * every other artifact) and parsed back with the strict JSON reader;
 * `capo-bench compare` consumes them (obs/compare.hh).
 */

#ifndef CAPO_OBS_SNAPSHOT_HH
#define CAPO_OBS_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "report/artifact.hh"

namespace capo::obs {

/** A mean with the paper's 95 % confidence half-width. */
struct Stat
{
    double mean = 0.0;
    double ci95 = 0.0;
    std::size_t n = 0;

    double lower() const { return mean - ci95; }
    double upper() const { return mean + ci95; }

    /** Do two stats' confidence intervals fail to overlap? */
    bool disjointFrom(const Stat &other) const
    {
        return upper() < other.lower() || other.upper() < lower();
    }
};

/** Quantile summary of one hot-tier histogram. */
struct HotStat
{
    std::string name;
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
};

/** One committed performance measurement of one experiment. */
struct BenchSnapshot
{
    static constexpr int kSchemaVersion = 1;

    int schema = kSchemaVersion;
    std::string name;        ///< Snapshot label ("harness").
    std::string experiment;  ///< Registry name that was measured.
    std::vector<std::string> args;  ///< Args the experiment ran with.
    std::string config_hash;        ///< Hex of the (name, args) recipe.

    int jobs = 1;              ///< Parallelism of the timed runs.
    int hardware_threads = 0;  ///< Recording machine's concurrency.
    int repeats = 0;           ///< Timed repetitions behind the CIs.

    /** Seconds for the fixed calibration spin on this machine. */
    double calibration_sec = 0.0;

    Stat elapsed_sec;       ///< Wall seconds per timed run.
    Stat normalized_cost;   ///< elapsed / calibration (machine-relative).
    Stat cells_per_sec;     ///< Sweep cells completed per second.
    Stat invocations_per_sec;
    Stat sim_events_per_sec;

    /** Nanoseconds per hot-metric record with the gate off / on. */
    double hot_disabled_ns = 0.0;
    double hot_enabled_ns = 0.0;

    std::vector<HotStat> hot;  ///< Hot histogram quantiles.
};

/** The conventional snapshot file name ("BENCH_<label>.json"). */
std::string snapshotFileName(const std::string &label);

/** The config-hash recipe (shared shape with the serve cache key and
 *  the checkpoint journal header: name plus ordered args). */
std::string configHash(const std::string &experiment,
                       const std::vector<std::string> &args);

/** Serialize @p snapshot as pretty JSON. */
std::string renderSnapshotJson(const BenchSnapshot &snapshot);

/** Write @p snapshot through @p sink at @p path (false = quarantined). */
bool writeSnapshot(const BenchSnapshot &snapshot,
                   report::ArtifactSink &sink, const std::string &path);

/** Parse a snapshot back from JSON text (strict). */
bool parseSnapshot(const std::string &text, BenchSnapshot &out,
                   std::string &error);

/** Load and parse a snapshot file. */
bool loadSnapshot(const std::string &path, BenchSnapshot &out,
                  std::string &error);

} // namespace capo::obs

#endif // CAPO_OBS_SNAPSHOT_HH
