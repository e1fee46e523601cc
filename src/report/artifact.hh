/**
 * @file
 * ArtifactSink: the one choke point through which every result
 * artifact — CSV, JSON-lines, trace exports — reaches disk.
 *
 * Funnelling all artifact I/O through one object buys three things:
 *
 *  1. *Resilience.* A sweep that ran for hours must never die because
 *     a report path is unwritable. Every write is attempted whole
 *     (buffer first, then open/write/flush), retried on failure, and
 *     quarantined — recorded and reported, never fatal — when the
 *     retries are exhausted.
 *
 *  2. *Fault injection.* The `artifact_io` fault site lives here:
 *     with an armed FaultPlan, write and flush opportunities consult
 *     a deterministic FaultInjector exactly like the five simulation
 *     sites, so artifact-failure handling is testable from a seed.
 *
 *  3. *Observability and tests.* The sink records every artifact it
 *     produced (path, bytes, attempts, outcome); a Memory-mode sink
 *     captures payloads without touching the filesystem, which is how
 *     the golden tests snapshot registry experiments hermetically.
 */

#ifndef CAPO_REPORT_ARTIFACT_HH
#define CAPO_REPORT_ARTIFACT_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "report/table.hh"

namespace capo::report {

/** One artifact the sink was asked to produce. */
struct ArtifactRecord
{
    std::string path;       ///< As passed to write() (root-relative).
    std::size_t bytes = 0;  ///< Payload size.
    int attempts = 1;       ///< Write attempts consumed.
    bool ok = false;        ///< Did the payload land?
    std::string error;      ///< Last failure ("" when ok).
};

/** Serialization format for table artifacts. */
enum class Format { Csv, Jsonl };

/** File suffix of a format (".csv" / ".jsonl"). */
const char *formatSuffix(Format format);

/**
 * The artifact I/O choke point.
 */
class ArtifactSink
{
  public:
    /** Where payloads go. */
    enum class Mode {
        Disk,     ///< Write files under the root directory.
        Memory,   ///< Keep payloads in memory (tests, golden runs).
        Discard,  ///< Validate and record, write nowhere.
    };

    /**
     * @param root Directory prefix for relative artifact paths
     *        (Disk mode). "." writes relative to the working
     *        directory; absolute artifact paths ignore the root.
     */
    explicit ArtifactSink(std::string root = ".",
                          Mode mode = Mode::Disk);

    /**
     * Arm the artifact_io fault site: writes and flushes consult a
     * deterministic injector seeded by (@p plan seed, @p stream_seed).
     * A plan with a zero artifact-io rate disarms.
     */
    void armFaults(const fault::FaultPlan &plan,
                   std::uint64_t stream_seed);

    /** Extra attempts per failed write (default 2). */
    void setRetries(int retries);

    /**
     * Produce one artifact: run @p writer into a buffer, then land the
     * payload whole. Returns false when the artifact was quarantined
     * (all attempts failed); the failure is recorded and reported,
     * never fatal.
     */
    bool write(const std::string &path,
               const std::function<void(std::ostream &)> &writer);

    /** Serialize @p table in @p format through write(). */
    bool writeTable(const std::string &path, const ResultTable &table,
                    Format format);

    /** Every artifact asked of this sink, in write order. */
    const std::vector<ArtifactRecord> &artifacts() const
    {
        return records_;
    }

    /** The artifacts that failed every attempt. */
    std::vector<ArtifactRecord> quarantined() const;

    /** Memory-mode payload for @p path (empty when absent). */
    const std::string &payload(const std::string &path) const;

    const std::string &root() const { return root_; }
    Mode mode() const { return mode_; }

  private:
    /** One write attempt; false + error on (injected or real)
     *  failure. */
    bool attempt(const std::string &path, const std::string &payload,
                 std::string &error);

    std::string root_;
    Mode mode_;
    int retries_ = 2;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::vector<ArtifactRecord> records_;
    std::map<std::string, std::string> payloads_;
};

} // namespace capo::report

#endif // CAPO_REPORT_ARTIFACT_HH
