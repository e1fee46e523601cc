/**
 * @file
 * The capo-serve wire protocol: length-prefixed frames carrying
 * line-structured messages over a local TCP or Unix socket.
 *
 * Every frame is a 4-byte little-endian payload length followed by
 * the payload bytes. Payloads are text built from the report layer's
 * record codec (report/codec.hh): tab-separated fields, one record
 * per line, doubles as exact IEEE-754 bit patterns. Reusing the codec
 * is load-bearing — a result table travels the wire in the *same*
 * representation the checkpoint journal and result store use, so a
 * served response decodes into tables bit-identical to a local run,
 * and a cached response can be replayed as raw bytes without ever
 * re-serializing.
 *
 * Message shapes:
 *
 *   request    capo-serve-req v1 <kind>
 *              exp \t <name>            (run only)
 *              arg \t <value>           (run only, repeated, in order)
 *              deadline \t <bits>       (run only; 0-bits = none)
 *              stream \t <n>            (fault stream id, client-chosen)
 *              seq \t <n>               (request index within stream)
 *              attempt \t <n>           (client resend attempt)
 *
 *   response   capo-serve-rsp v1 <status> <cached>
 *              msg \t <text>
 *              body
 *              <raw body bytes — an encoded store for Ok runs>
 *
 *   store      store v1 <ntables>
 *              table \t <name> \t <ncols> \t <nrows>
 *              col \t <name> \t <type>      (x ncols)
 *              row \t <field>...            (x nrows, exact codec)
 */

#ifndef CAPO_SERVE_PROTOCOL_HH
#define CAPO_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "report/table.hh"

namespace capo::serve {

/** Hard ceiling on one frame's payload, for sanity under injected or
 *  real corruption of the length prefix. */
constexpr std::size_t kMaxFrameBytes = 64u << 20;

/** @{ Frame length prefix: 4 bytes, little-endian. */
void encodeFrameLength(std::uint32_t length, char out[4]);
std::uint32_t decodeFrameLength(const char bytes[4]);
/** @} */

/** What a client asks of the server. */
enum class RequestKind : std::uint8_t { Run, Health, Shutdown };

/** Outcome class of one request. */
enum class Status : std::uint8_t {
    Ok,              ///< Run completed; body carries the result store.
    Error,           ///< Malformed or unrunnable request (body empty).
    RetryLater,      ///< Admission queue full — back off and resend.
    DeadlineExpired, ///< Deadline passed before execution started.
    ShuttingDown,    ///< Server is draining; no new work accepted.
};

/** Wire name of a status ("OK", "RETRY_LATER", ...). */
const char *statusName(Status status);

/** One client request. */
struct Request
{
    RequestKind kind = RequestKind::Run;

    /** Registered experiment name (Run). */
    std::string experiment;

    /** Experiment args exactly as the standalone binary takes them
     *  (Run). Order matters for the cache key. */
    std::vector<std::string> args;

    /** Wall-clock budget from admission to execution start in ms;
     *  0 disables (Run). */
    double deadline_ms = 0.0;

    /** Client-chosen fault stream id: the conn_io fault schedule for
     *  this request is a pure function of (plan seed, stream, seq,
     *  attempt), never of server threading. */
    std::uint64_t stream = 0;

    /** Request index within the stream (client-counted). */
    std::uint64_t sequence = 0;

    /** Client resend attempt (bumped on reconnect-and-retry so a
     *  retried request draws a fresh fault schedule). */
    std::uint64_t attempt = 0;
};

/** One server response. */
struct Response
{
    Status status = Status::Error;
    bool cached = false;    ///< Body replayed from the result cache.
    std::string message;    ///< Error text / health state ("" else).
    std::string body;       ///< Encoded store (Ok), else empty.
};

/** @{ Request/response payload codec. Decoders return false and set
 *  @p error on malformed payloads — never assert: wire input is
 *  untrusted. */
std::string encodeRequest(const Request &request);
bool decodeRequest(const std::string &payload, Request &request,
                   std::string &error);
std::string encodeResponse(const Response &response);
bool decodeResponse(const std::string &payload, Response &response,
                    std::string &error);
/** @} */

/** @{ Result-store payload codec: the exact record representation
 *  (bit-pattern doubles), so decode(encode(store)) is bit-identical. */
std::string encodeStore(const report::ResultStore &store);
bool decodeStore(const std::string &payload, report::ResultStore &store,
                 std::string &error);
/** @} */

/**
 * The content-address of a run request: the same canonical-string
 * FNV-1a recipe the checkpoint journal uses for its config hash
 * (exec::hashString over every parameter that shapes results).
 * Experiment name and args (in order) are covered; deadline, stream,
 * seq and attempt shape scheduling, not results, and are excluded —
 * exactly as the journal hash excludes --jobs and output paths.
 */
std::uint64_t requestKey(const Request &request);

/** On-disk cache file name for a key ("<16 hex digits>.capores"). */
std::string cacheFileName(std::uint64_t key);

} // namespace capo::serve

#endif // CAPO_SERVE_PROTOCOL_HH
