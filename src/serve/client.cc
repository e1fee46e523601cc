#include "serve/client.hh"

#include <chrono>
#include <thread>
#include <utility>

#include "serve/socket.hh"

namespace capo::serve {

Client::Client(ClientOptions options) : options_(std::move(options)) {}

Client::~Client()
{
    close();
}

bool
Client::connect(std::string &error)
{
    if (fd_ >= 0)
        return true;
    fd_ = options_.socket_path.empty()
              ? connectTcp(options_.tcp_port, error)
              : connectUnix(options_.socket_path, error);
    return fd_ >= 0;
}

void
Client::close()
{
    closeSocket(fd_);
    fd_ = -1;
}

bool
Client::roundTrip(Request request, Response &response,
                  std::string &error)
{
    request.stream = options_.stream;
    request.sequence = next_sequence_++;

    const int tries =
        options_.max_retries < 0 ? 1 : options_.max_retries + 1;
    const auto backoff = std::chrono::duration<double, std::milli>(
        options_.retry_backoff_ms);
    std::string last_error = "no attempts made";
    for (int attempt = 0; attempt < tries; ++attempt) {
        if (attempt > 0)
            std::this_thread::sleep_for(backoff);
        // The attempt counter is part of the request's fault-stream
        // identity: a resend draws a fresh conn_io schedule.
        request.attempt = static_cast<std::uint64_t>(attempt);

        if (!connect(last_error))
            continue;
        if (!sendFrame(fd_, encodeRequest(request))) {
            last_error = "connection dropped while sending";
            close();
            continue;
        }
        std::string payload;
        std::string frame_error;
        if (!recvFrame(fd_, payload, frame_error)) {
            last_error = frame_error.empty()
                             ? "connection dropped awaiting reply"
                             : frame_error;
            close();
            continue;
        }
        if (!decodeResponse(payload, response, frame_error)) {
            last_error = "bad response: " + frame_error;
            close();
            continue;
        }
        if (response.status == Status::RetryLater) {
            last_error = "server busy (RETRY_LATER)";
            continue;  // Connection is fine; back off and resend.
        }
        return true;
    }
    error = last_error + " after " + std::to_string(tries) +
            (tries == 1 ? " try" : " tries");
    return false;
}

bool
Client::run(const std::string &experiment,
            const std::vector<std::string> &args, double deadline_ms,
            Response &response, std::string &error)
{
    Request request;
    request.kind = RequestKind::Run;
    request.experiment = experiment;
    request.args = args;
    request.deadline_ms = deadline_ms;
    return roundTrip(std::move(request), response, error);
}

bool
Client::health(Response &response, std::string &error)
{
    Request request;
    request.kind = RequestKind::Health;
    return roundTrip(std::move(request), response, error);
}

bool
Client::shutdownServer(Response &response, std::string &error)
{
    Request request;
    request.kind = RequestKind::Shutdown;
    return roundTrip(std::move(request), response, error);
}

} // namespace capo::serve
