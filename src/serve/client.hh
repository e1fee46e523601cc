/**
 * @file
 * Client library for the experiment server: connect over a Unix or
 * loopback-TCP socket, submit runs, poll health, request shutdown.
 *
 * The client owns the retry discipline that pairs with the server's
 * deterministic conn_io fault injection: every request carries a
 * client-chosen (stream, sequence, attempt) identity, a dropped
 * connection or RETRY_LATER answer backs off and resends with the
 * attempt counter bumped, and the bumped attempt makes the retried
 * request draw a *fresh* fault schedule — exactly the harness's
 * retry-with-fresh-stream rule, so transient injected drops clear and
 * only a hard-stuck server surfaces as an error.
 */

#ifndef CAPO_SERVE_CLIENT_HH
#define CAPO_SERVE_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hh"

namespace capo::serve {

/** Client configuration. */
struct ClientOptions
{
    /** Unix-domain socket path ("" = use TCP). */
    std::string socket_path;

    /** Loopback TCP port (used when socket_path is empty). */
    int tcp_port = 0;

    /** Fault stream id stamped on every request; concurrent clients
     *  pick distinct streams so their fault schedules are
     *  independent. */
    std::uint64_t stream = 0;

    /** Resend attempts after a drop or RETRY_LATER (total tries =
     *  max_retries + 1). */
    int max_retries = 8;

    /** Backoff between retries, in milliseconds. */
    double retry_backoff_ms = 10.0;
};

/**
 * One connection to a capo-serve daemon. Not thread-safe; concurrent
 * callers each hold their own Client (and their own stream id).
 */
class Client
{
  public:
    explicit Client(ClientOptions options);
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Establish the connection (also done lazily by the calls).
     *  False with @p error when the server is unreachable. */
    bool connect(std::string &error);

    /** Drop the connection (calls reconnect as needed). */
    void close();

    /**
     * Submit one run and wait for its result. Dropped connections and
     * RETRY_LATER answers are retried with backoff and a bumped
     * attempt counter; any other response is returned as-is (an Error
     * status is a successful round trip — inspect response.status).
     */
    bool run(const std::string &experiment,
             const std::vector<std::string> &args, double deadline_ms,
             Response &response, std::string &error);

    /** Fetch the health snapshot ("HEALTHY"/"DRAINING" + stats). */
    bool health(Response &response, std::string &error);

    /** Ask the server to drain and exit gracefully. */
    bool shutdownServer(Response &response, std::string &error);

    /** Requests submitted so far (the next request's sequence). */
    std::uint64_t nextSequence() const { return next_sequence_; }

  private:
    /** Send @p request (stamping sequence/attempt), await the reply;
     *  retries drops and RETRY_LATER per the options. */
    bool roundTrip(Request request, Response &response,
                   std::string &error);

    ClientOptions options_;
    int fd_ = -1;
    std::uint64_t next_sequence_ = 0;
};

} // namespace capo::serve

#endif // CAPO_SERVE_CLIENT_HH
