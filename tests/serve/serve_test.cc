/**
 * @file
 * Tests for the experiment server: wire-protocol codecs (bit-exact
 * doubles, binary-safe bodies), the content-addressed cache key and
 * its exclusions, cache warm-load with torn-file skip, and end-to-end
 * server behavior over a Unix socket — bitwise equality between
 * served and direct registry runs, cache-hit replay, queue-full
 * RETRY_LATER, deadline expiry, graceful drain, and conn_io fault
 * determinism across worker counts.
 *
 * The experiments used here are test-local registrations (this
 * binary's own TU) so the suite stays fast and needs no
 * capo_experiments link.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/seed.hh"
#include "fault/fault.hh"
#include "report/artifact.hh"
#include "report/experiment.hh"
#include "report/table.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/socket.hh"
#include "support/flags.hh"
#include "trace/hot_metrics.hh"

using namespace capo;
using namespace capo::serve;

namespace {

// ---------------------------------------------------------------------
// Test-local experiments.

/** Deterministic typed table from flags: the serving path must return
 *  it bit-identically to a direct runRegistered call. */
const report::RegisterExperiment kEcho{[] {
    report::Experiment e;
    e.name = "serve_test_echo";
    e.title = "serve test echo";
    e.description = "test-local: deterministic table from flags";
    e.add_flags = [](support::Flags &flags) {
        flags.addInt("rows", 3, "rows to emit");
        flags.addDouble("scale", 0.1, "value scale");
    };
    e.run = [](report::ExperimentContext &context) {
        const auto rows = context.flags.getInt("rows");
        const double scale = context.flags.getDouble("scale");
        auto &table = context.store.table(
            "echo", report::Schema{{"i", report::Type::Int},
                                   {"x", report::Type::Double},
                                   {"tag", report::Type::String}});
        for (std::int64_t i = 0; i < rows; ++i) {
            // Non-representable decimals so bit-identity is a real
            // assertion, not a round-decimal accident.
            table.addRow({report::Value::integer(i),
                          report::Value::dbl(scale * (i + 1) / 7.0),
                          report::Value::str("r" + std::to_string(i))});
        }
        return 0;
    };
    return e;
}()};

/** Occupies the (single) worker for a controllable time. */
const report::RegisterExperiment kSlow{[] {
    report::Experiment e;
    e.name = "serve_test_slow";
    e.title = "serve test slow";
    e.description = "test-local: sleeps before emitting one row";
    e.add_flags = [](support::Flags &flags) {
        flags.addInt("sleep-ms", 50, "how long to hold the worker");
        flags.addInt("id", 0, "distinct cache identity");
    };
    e.run = [](report::ExperimentContext &context) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            context.flags.getInt("sleep-ms")));
        auto &table = context.store.table(
            "slow", report::Schema{{"id", report::Type::Int}});
        table.addRow(
            {report::Value::integer(context.flags.getInt("id"))});
        return 0;
    };
    return e;
}()};

/** Always fails: the daemon must answer Error, not die. */
const report::RegisterExperiment kFail{[] {
    report::Experiment e;
    e.name = "serve_test_fail";
    e.title = "serve test fail";
    e.description = "test-local: exits nonzero";
    e.run = [](report::ExperimentContext &) { return 3; };
    return e;
}()};

// ---------------------------------------------------------------------
// Helpers.

std::string
tempDir(const std::string &name)
{
    const auto dir = std::filesystem::path(::testing::TempDir()) /
                     ("capo_serve_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** Body bytes of a direct (unserved) registry run — the reference the
 *  server's responses must match bitwise. */
std::string
directBody(const std::string &name,
           const std::vector<std::string> &args)
{
    const auto *experiment =
        report::ExperimentRegistry::instance().find(name);
    EXPECT_NE(experiment, nullptr);
    report::ArtifactSink sink(".", report::ArtifactSink::Mode::Discard);
    report::ResultStore store;
    EXPECT_EQ(report::runRegistered(*experiment, args, sink, store), 0);
    return encodeStore(store);
}

/** A started server over a Unix socket in its own temp dir. */
struct TestServer
{
    explicit TestServer(ServerOptions options,
                        const std::string &name)
        : dir(tempDir(name))
    {
        options.socket_path = dir + "/serve.sock";
        server = std::make_unique<ExperimentServer>(std::move(options));
        std::string error;
        EXPECT_TRUE(server->start(error)) << error;
    }

    ~TestServer()
    {
        server->drain();
        server->join();
    }

    std::string socketPath() const { return dir + "/serve.sock"; }

    std::string dir;
    std::unique_ptr<ExperimentServer> server;
};

/** Raw request/response over one fresh connection — no client retry
 *  discipline, so RETRY_LATER and friends surface unmodified. */
bool
rawRoundTrip(const std::string &socket_path, const Request &request,
             Response &response)
{
    std::string error;
    const int fd = connectUnix(socket_path, error);
    if (fd < 0)
        return false;
    bool ok = sendFrame(fd, encodeRequest(request));
    std::string payload;
    ok = ok && recvFrame(fd, payload, error);
    ok = ok && decodeResponse(payload, response, error);
    closeSocket(fd);
    return ok;
}

/** A request of kind "batch", an opcode the protocol no longer has,
 *  exactly as its encoder wrote one with zero cells. It must fail to
 *  decode as an unknown kind, not be half-understood. */
const char *const kRetiredBatchPayload = "capo-serve-req v1 batch\n"
                                         "cells\t0\n"
                                         "stream\t0\n"
                                         "seq\t0\n"
                                         "attempt\t0\n";

Request
runRequest(const std::string &experiment,
           const std::vector<std::string> &args, double deadline_ms,
           std::uint64_t stream, std::uint64_t sequence)
{
    Request request;
    request.kind = RequestKind::Run;
    request.experiment = experiment;
    request.args = args;
    request.deadline_ms = deadline_ms;
    request.stream = stream;
    request.sequence = sequence;
    return request;
}

double
healthStat(const Response &response, const std::string &stat)
{
    report::ResultStore store;
    std::string error;
    EXPECT_TRUE(decodeStore(response.body, store, error)) << error;
    const auto *table = store.find("health");
    EXPECT_NE(table, nullptr);
    for (const auto &row : table->rows())
        if (row[0].asString() == stat)
            return row[1].asDouble();
    ADD_FAILURE() << "health stat '" << stat << "' missing";
    return -1.0;
}

// ---------------------------------------------------------------------
// Framing tests: truncation is diagnosed, clean EOF stays silent.

/** recvFrame against hand-fed bytes over a socketpair, after the
 *  write side closes. */
std::pair<bool, std::string>
recvFrameAfterClose(const std::string &bytes)
{
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    EXPECT_EQ(::send(fds[1], bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    ::close(fds[1]);
    std::string payload, error;
    const bool ok = recvFrame(fds[0], payload, error);
    ::close(fds[0]);
    return {ok, error};
}

TEST(ServeSocketTest, CleanCloseBeforeHeaderIsNotAnError)
{
    const auto [ok, error] = recvFrameAfterClose("");
    EXPECT_FALSE(ok);
    EXPECT_TRUE(error.empty()) << error;
}

TEST(ServeSocketTest, MidHeaderCloseReportsTruncatedFrame)
{
    // Two of the four length bytes, then the peer vanishes: that is
    // a torn exchange, not a polite goodbye, and the error must say
    // so — callers distinguish retryable truncation from clean EOF.
    const auto [ok, error] = recvFrameAfterClose(std::string(2, 'x'));
    EXPECT_FALSE(ok);
    EXPECT_NE(error.find("TRUNCATED_FRAME"), std::string::npos)
        << error;
    EXPECT_NE(error.find("mid-header"), std::string::npos) << error;
    EXPECT_NE(error.find("2/4"), std::string::npos) << error;
}

TEST(ServeSocketTest, MidFrameCloseReportsTruncatedFrame)
{
    char header[4];
    encodeFrameLength(100, header);
    const auto [ok, error] = recvFrameAfterClose(
        std::string(header, 4) + std::string(10, 'p'));
    EXPECT_FALSE(ok);
    EXPECT_NE(error.find("TRUNCATED_FRAME"), std::string::npos)
        << error;
    EXPECT_NE(error.find("mid-frame"), std::string::npos) << error;
    EXPECT_NE(error.find("10/100"), std::string::npos) << error;
}

// ---------------------------------------------------------------------
// Protocol codec tests.

TEST(ServeProtocolTest, FrameLengthRoundTrips)
{
    for (std::uint32_t length :
         {0u, 1u, 255u, 256u, 65536u, (64u << 20) - 1}) {
        char bytes[4];
        encodeFrameLength(length, bytes);
        EXPECT_EQ(decodeFrameLength(bytes), length);
    }
}

TEST(ServeProtocolTest, RequestRoundTripsAllFields)
{
    Request request;
    request.kind = RequestKind::Run;
    request.experiment = "serve_test_echo";
    request.args = {"--rows", "5", "--scale", "0.3", "pos arg"};
    request.deadline_ms = 12.5;
    request.stream = 0xdeadbeefcafe1234ull;
    request.sequence = 42;
    request.attempt = 3;

    Request back;
    std::string error;
    ASSERT_TRUE(decodeRequest(encodeRequest(request), back, error))
        << error;
    EXPECT_EQ(back.kind, RequestKind::Run);
    EXPECT_EQ(back.experiment, request.experiment);
    EXPECT_EQ(back.args, request.args);
    EXPECT_EQ(back.deadline_ms, request.deadline_ms);
    EXPECT_EQ(back.stream, request.stream);
    EXPECT_EQ(back.sequence, request.sequence);
    EXPECT_EQ(back.attempt, request.attempt);

    for (auto kind : {RequestKind::Health, RequestKind::Shutdown}) {
        Request control;
        control.kind = kind;
        control.stream = 9;
        ASSERT_TRUE(
            decodeRequest(encodeRequest(control), back, error));
        EXPECT_EQ(back.kind, kind);
        EXPECT_EQ(back.stream, 9u);
    }
}

TEST(ServeProtocolTest, DecodeRejectsMalformedPayloads)
{
    Request request;
    std::string error;
    EXPECT_FALSE(decodeRequest("", request, error));
    EXPECT_FALSE(decodeRequest("garbage", request, error));
    EXPECT_FALSE(decodeRequest("capo-serve-rsp v1 OK 0", request,
                               error));
    EXPECT_FALSE(decodeRequest(kRetiredBatchPayload, request, error));
    EXPECT_EQ(error, "unknown request kind");
    Response response;
    EXPECT_FALSE(decodeResponse("", response, error));
    EXPECT_FALSE(decodeResponse("capo-serve-req v1 run", response,
                                error));
}

TEST(ServeProtocolTest, ResponseBodyIsBinarySafe)
{
    Response response;
    response.status = Status::Ok;
    response.cached = true;
    response.message = "hit";
    response.body = std::string("line1\nline2\twith tab\n") +
                    std::string(1, '\0') + "after-nul\nno trailing nl";

    Response back;
    std::string error;
    ASSERT_TRUE(decodeResponse(encodeResponse(response), back, error))
        << error;
    EXPECT_EQ(back.status, Status::Ok);
    EXPECT_TRUE(back.cached);
    EXPECT_EQ(back.message, "hit");
    EXPECT_EQ(back.body, response.body);
}

TEST(ServeProtocolTest, StoreCodecIsBitIdentical)
{
    report::ResultStore store;
    auto &table = store.table(
        "exotic", report::Schema{{"name", report::Type::String},
                                 {"x", report::Type::Double},
                                 {"n", report::Type::Int},
                                 {"u", report::Type::Uint},
                                 {"b", report::Type::Bool}});
    const double exotic[] = {0.1, -0.0, 5e-324, 1.7976931348623157e308,
                             3.141592653589793, 1.0 / 3.0};
    std::int64_t n = -1;
    for (double x : exotic) {
        table.addRow({report::Value::str("v" + std::to_string(n)),
                      report::Value::dbl(x), report::Value::integer(n),
                      report::Value::uinteger(0xffffffffffffffffull),
                      report::Value::boolean(n % 2 == 0)});
        n *= 3;
    }

    const std::string encoded = encodeStore(store);
    report::ResultStore back;
    std::string error;
    ASSERT_TRUE(decodeStore(encoded, back, error)) << error;
    const auto *decoded = back.find("exotic");
    ASSERT_NE(decoded, nullptr);
    EXPECT_TRUE(decoded->identical(table));
    // Re-encoding the decoded store reproduces the exact bytes — the
    // property cached replay relies on.
    EXPECT_EQ(encodeStore(back), encoded);
}

TEST(ServeProtocolTest, RequestKeyCoversResultsShapingFieldsOnly)
{
    const auto base = runRequest("serve_test_echo",
                                 {"--rows", "4"}, 0.0, 0, 0);
    const auto key = requestKey(base);

    // Scheduling identity is excluded, exactly like the journal hash
    // excludes --jobs: deadline, stream, sequence and attempt must
    // not move the key.
    auto scheduled = base;
    scheduled.deadline_ms = 250.0;
    scheduled.stream = 77;
    scheduled.sequence = 12;
    scheduled.attempt = 2;
    EXPECT_EQ(requestKey(scheduled), key);

    auto other_experiment = base;
    other_experiment.experiment = "serve_test_slow";
    EXPECT_NE(requestKey(other_experiment), key);

    auto other_args = base;
    other_args.args = {"--rows", "5"};
    EXPECT_NE(requestKey(other_args), key);

    // Arg order is part of the content address.
    auto reordered = base;
    reordered.args = {"4", "--rows"};
    EXPECT_NE(requestKey(reordered), key);

    EXPECT_EQ(cacheFileName(0x0123456789abcdefull),
              "0123456789abcdef.capores");
}

// ---------------------------------------------------------------------
// Cache tests.

TEST(ResultCacheTest, LookupInsertAndStats)
{
    ResultCache cache;
    std::string payload;
    EXPECT_FALSE(cache.lookup(1, payload));
    cache.insert(1, "alpha");
    cache.insert(2, "beta");
    // First bytes are authoritative: re-insert is a no-op.
    cache.insert(1, "overwrite-attempt");
    ASSERT_TRUE(cache.lookup(1, payload));
    EXPECT_EQ(payload, "alpha");
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.insertions(), 2u);
    EXPECT_EQ(cache.entryCount(), 2u);
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.5);
}

TEST(ResultCacheTest, EvictsOldestPastCapacity)
{
    ResultCache cache(nullptr, "cache", 2);
    cache.insert(1, "a");
    cache.insert(2, "b");
    cache.insert(3, "c");
    EXPECT_EQ(cache.entryCount(), 2u);
    std::string payload;
    EXPECT_FALSE(cache.lookup(1, payload));
    EXPECT_TRUE(cache.lookup(3, payload));
}

TEST(ResultCacheTest, WarmLoadsDiskAndSkipsTornFiles)
{
    const auto dir = tempDir("cache_warm");
    {
        report::ArtifactSink sink(dir);
        ResultCache cache(&sink, "cache");
        cache.insert(0x11, "payload-one\nwith lines\n");
        cache.insert(0x22, std::string("binary\0bytes", 12));
    }

    // A torn write: header promises more bytes than the file holds.
    {
        std::ofstream torn(dir + "/cache/" + cacheFileName(0x33),
                           std::ios::binary);
        torn << "capo-result v1 0000000000000033 100\nshort";
    }
    // Alien junk with the right extension.
    {
        std::ofstream junk(dir + "/cache/junk.capores",
                           std::ios::binary);
        junk << "not a cache file";
    }

    report::ArtifactSink sink(dir);
    ResultCache cache(&sink, "cache");
    EXPECT_EQ(cache.loadFromDisk(), 2u);
    EXPECT_EQ(cache.loaded(), 2u);
    std::string payload;
    ASSERT_TRUE(cache.lookup(0x11, payload));
    EXPECT_EQ(payload, "payload-one\nwith lines\n");
    ASSERT_TRUE(cache.lookup(0x22, payload));
    EXPECT_EQ(payload, std::string("binary\0bytes", 12));
    EXPECT_FALSE(cache.lookup(0x33, payload));
}

TEST(ResultCacheTest, LookupRefreshesRecencyUnderEntryCap)
{
    ResultCache cache(nullptr, "cache", 2);
    cache.insert(1, "a");
    cache.insert(2, "b");
    // Touch 1: now 2 is the least recently used and must go first.
    std::string payload;
    ASSERT_TRUE(cache.lookup(1, payload));
    cache.insert(3, "c");
    EXPECT_FALSE(cache.lookup(2, payload));
    ASSERT_TRUE(cache.lookup(1, payload));
    EXPECT_EQ(payload, "a");
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ResultCacheTest, ByteCapEvictsLruAndTracksBytes)
{
    ResultCache cache(nullptr, "cache", 0, 10);
    cache.insert(1, "aaaa");
    cache.insert(2, "bbbb");
    EXPECT_EQ(cache.byteCount(), 8u);
    std::string payload;
    ASSERT_TRUE(cache.lookup(1, payload)); // refresh 1
    cache.insert(3, "cccc");               // 12 > 10: evict 2
    EXPECT_FALSE(cache.lookup(2, payload));
    ASSERT_TRUE(cache.lookup(1, payload));
    ASSERT_TRUE(cache.lookup(3, payload));
    EXPECT_EQ(cache.byteCount(), 8u);
    EXPECT_EQ(cache.entryCount(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ResultCacheTest, OversizeEntryIsKeptNeverEvictedToEmpty)
{
    // A single entry larger than the byte cap must survive: a cache
    // that evicted its only entry would thrash forever.
    ResultCache cache(nullptr, "cache", 0, 4);
    cache.insert(1, "twelve-bytes");
    std::string payload;
    ASSERT_TRUE(cache.lookup(1, payload));
    EXPECT_EQ(cache.evictions(), 0u);
    // The next insert displaces it — LRU still applies between two.
    cache.insert(2, "x");
    EXPECT_FALSE(cache.lookup(1, payload));
    ASSERT_TRUE(cache.lookup(2, payload));
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ResultCacheTest, EvictionUnlinksDiskFilesTornSurvivorSkipped)
{
    const auto dir = tempDir("cache_evict");
    {
        report::ArtifactSink sink(dir);
        ResultCache cache(&sink, "cache", 2);
        cache.insert(0x11, "one");
        cache.insert(0x22, "two");
        std::string payload;
        ASSERT_TRUE(cache.lookup(0x11, payload)); // 0x22 becomes LRU
        cache.insert(0x33, "three");              // evicts 0x22
        // The evicted entry's disk file is unlinked, not orphaned.
        EXPECT_FALSE(std::filesystem::exists(
            dir + "/cache/" + cacheFileName(0x22)));
        EXPECT_TRUE(std::filesystem::exists(
            dir + "/cache/" + cacheFileName(0x11)));
    }

    // Tear one survivor on disk: a fresh warm load takes the intact
    // entry, skips the torn one, and never resurrects the evicted
    // key.
    {
        std::ofstream torn(dir + "/cache/" + cacheFileName(0x33),
                           std::ios::binary | std::ios::trunc);
        torn << "capo-result v1 0000000000000033 999\nnope";
    }
    report::ArtifactSink sink(dir);
    ResultCache cache(&sink, "cache", 2);
    EXPECT_EQ(cache.loadFromDisk(), 1u);
    std::string payload;
    ASSERT_TRUE(cache.lookup(0x11, payload));
    EXPECT_EQ(payload, "one");
    EXPECT_FALSE(cache.lookup(0x22, payload));
    EXPECT_FALSE(cache.lookup(0x33, payload));
}

TEST(ResultCacheTest, WarmLoadAppliesCapsWithEviction)
{
    const auto dir = tempDir("cache_warm_cap");
    {
        report::ArtifactSink sink(dir);
        ResultCache cache(&sink, "cache");
        cache.insert(0x01, "alpha");
        cache.insert(0x02, "beta");
        cache.insert(0x03, "gamma");
    }
    // Reload under a 2-entry cap: later names count as more recent,
    // so the lowest key is evicted — and its file unlinked.
    report::ArtifactSink sink(dir);
    ResultCache cache(&sink, "cache", 2);
    cache.loadFromDisk();
    EXPECT_EQ(cache.entryCount(), 2u);
    std::string payload;
    EXPECT_FALSE(cache.lookup(0x01, payload));
    ASSERT_TRUE(cache.lookup(0x02, payload));
    ASSERT_TRUE(cache.lookup(0x03, payload));
    EXPECT_FALSE(std::filesystem::exists(
        dir + "/cache/" + cacheFileName(0x01)));
}

TEST(ResultCacheTest, ConcurrentLookupsNeverSeeTornPayloads)
{
    // A replay in flight must never observe a half-evicted entry:
    // lookups copy the payload out under the lock. Hammer one hot
    // key while inserts churn the rest of a tiny cache past its
    // caps.
    constexpr std::uint64_t kHotKey = 0xffffull;
    ResultCache cache(nullptr, "cache", 4);
    const std::string hot(4096, 'h');
    cache.insert(kHotKey, hot);

    std::atomic<bool> stop{false};
    std::atomic<int> torn{0};
    std::thread reader([&] {
        std::string payload;
        while (!stop.load()) {
            if (cache.lookup(kHotKey, payload) && payload != hot)
                torn.fetch_add(1);
        }
    });
    for (std::uint64_t i = 0; i < 2000; ++i) {
        cache.insert(i + 1, std::string(64, 'x'));
        std::string payload;
        cache.lookup(kHotKey, payload); // keep the hot key recent
    }
    stop.store(true);
    reader.join();
    EXPECT_EQ(torn.load(), 0);
}

// ---------------------------------------------------------------------
// End-to-end server tests (Unix socket, test-local experiments).

TEST(ServeServerTest, ServedRunMatchesDirectRegistryBitwise)
{
    const std::vector<std::string> args = {"--rows", "4", "--scale",
                                           "0.3"};
    const std::string reference = directBody("serve_test_echo", args);

    ServerOptions options;
    options.workers = 2;
    TestServer harness(options, "bitwise");

    ClientOptions copt;
    copt.socket_path = harness.socketPath();
    Client client(copt);
    Response response;
    std::string error;
    ASSERT_TRUE(client.run("serve_test_echo", args, 0.0, response,
                           error))
        << error;
    EXPECT_EQ(response.status, Status::Ok);
    EXPECT_FALSE(response.cached);
    EXPECT_EQ(response.body, reference);

    // Same content address again: replayed from cache, byte for byte.
    ASSERT_TRUE(client.run("serve_test_echo", args, 0.0, response,
                           error))
        << error;
    EXPECT_EQ(response.status, Status::Ok);
    EXPECT_TRUE(response.cached);
    EXPECT_EQ(response.body, reference);

    const auto snapshot = harness.server->healthSnapshot();
    EXPECT_EQ(snapshot.cache_hits, 1u);
    EXPECT_EQ(snapshot.completed, 2u);
}

TEST(ServeServerTest, UnknownExperimentAndBadArgsAnswerError)
{
    ServerOptions options;
    TestServer harness(options, "errors");
    ClientOptions copt;
    copt.socket_path = harness.socketPath();
    Client client(copt);

    Response response;
    std::string error;
    ASSERT_TRUE(client.run("no_such_experiment", {}, 0.0, response,
                           error))
        << error;
    EXPECT_EQ(response.status, Status::Error);
    EXPECT_NE(response.message.find("unknown experiment"),
              std::string::npos);

    ASSERT_TRUE(client.run("serve_test_echo", {"--rows", "abc"}, 0.0,
                           response, error))
        << error;
    EXPECT_EQ(response.status, Status::Error);
    EXPECT_NE(response.message.find("bad arguments"),
              std::string::npos);

    ASSERT_TRUE(client.run("serve_test_fail", {}, 0.0, response,
                           error))
        << error;
    EXPECT_EQ(response.status, Status::Error);
    EXPECT_NE(response.message.find("code 3"), std::string::npos);

    // The daemon survived all of it.
    ASSERT_TRUE(client.health(response, error)) << error;
    EXPECT_EQ(response.message, "HEALTHY");
}

TEST(ServeServerTest, MalformedFrameAnswersErrorNotDeath)
{
    ServerOptions options;
    TestServer harness(options, "malformed");

    std::string error;
    const int fd = connectUnix(harness.socketPath(), error);
    ASSERT_GE(fd, 0) << error;
    std::string payload;
    Response response;
    for (const auto &[bad, why] :
         {std::pair{"complete garbage", "bad request magic"},
          std::pair{kRetiredBatchPayload, "unknown request kind"}}) {
        ASSERT_TRUE(sendFrame(fd, bad));
        ASSERT_TRUE(recvFrame(fd, payload, error)) << error;
        ASSERT_TRUE(decodeResponse(payload, response, error)) << error;
        EXPECT_EQ(response.status, Status::Error);
        EXPECT_NE(response.message.find(std::string("bad request: ") +
                                        why),
                  std::string::npos)
            << response.message;
    }

    // Same connection still serves well-formed requests.
    ASSERT_TRUE(sendFrame(
        fd, encodeRequest(runRequest("serve_test_echo",
                                     {"--rows", "1"}, 0.0, 1, 0))));
    ASSERT_TRUE(recvFrame(fd, payload, error)) << error;
    ASSERT_TRUE(decodeResponse(payload, response, error)) << error;
    EXPECT_EQ(response.status, Status::Ok);
    closeSocket(fd);
}

TEST(ServeServerTest, ConcurrentClientsMatchDirectRunsBitwise)
{
    // Three distinct configurations shared across eight clients:
    // plenty of duplicate content addresses, so the run must be
    // correct under concurrent admission AND the cache must replay
    // exact bytes.
    const std::vector<std::vector<std::string>> configs = {
        {"--rows", "2", "--scale", "0.5"},
        {"--rows", "5", "--scale", "0.25"},
        {"--rows", "8", "--scale", "1.5"},
    };
    std::vector<std::string> references;
    for (const auto &config : configs)
        references.push_back(directBody("serve_test_echo", config));

    ServerOptions options;
    options.workers = 4;
    options.queue_capacity = 64;
    TestServer harness(options, "stress");

    constexpr int kClients = 8;
    constexpr int kRequestsPerClient = 6;
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            ClientOptions copt;
            copt.socket_path = harness.socketPath();
            copt.stream = static_cast<std::uint64_t>(c + 1);
            Client client(copt);
            for (int r = 0; r < kRequestsPerClient; ++r) {
                const std::size_t which =
                    static_cast<std::size_t>(c + r) % configs.size();
                Response response;
                std::string error;
                if (!client.run("serve_test_echo", configs[which],
                                0.0, response, error) ||
                    response.status != Status::Ok) {
                    failures.fetch_add(1);
                    continue;
                }
                if (response.body != references[which])
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
    const auto snapshot = harness.server->healthSnapshot();
    EXPECT_EQ(snapshot.completed,
              static_cast<std::uint64_t>(kClients *
                                         kRequestsPerClient));
    // 48 requests over 3 content addresses: nearly all are replays.
    // (A burst of simultaneous first requests can each miss before
    // the first insert lands, so leave generous startup slack.)
    EXPECT_GE(snapshot.cache_hits, 30u);
}

TEST(ServeServerTest, QueueFullAnswersRetryLater)
{
    ServerOptions options;
    options.workers = 1;
    options.queue_capacity = 1;
    TestServer harness(options, "queue_full");

    std::string error;
    // A: occupies the worker.
    const int fd_a = connectUnix(harness.socketPath(), error);
    ASSERT_GE(fd_a, 0) << error;
    ASSERT_TRUE(sendFrame(
        fd_a, encodeRequest(runRequest(
                  "serve_test_slow",
                  {"--sleep-ms", "500", "--id", "1"}, 0.0, 1, 0))));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // B: sits in the (capacity-1) queue.
    const int fd_b = connectUnix(harness.socketPath(), error);
    ASSERT_GE(fd_b, 0) << error;
    ASSERT_TRUE(sendFrame(
        fd_b, encodeRequest(runRequest(
                  "serve_test_slow",
                  {"--sleep-ms", "10", "--id", "2"}, 0.0, 2, 0))));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // C: no room — immediate RETRY_LATER, nothing queued or run.
    Response response;
    ASSERT_TRUE(rawRoundTrip(
        harness.socketPath(),
        runRequest("serve_test_echo", {"--rows", "1"}, 0.0, 3, 0),
        response));
    EXPECT_EQ(response.status, Status::RetryLater);
    EXPECT_EQ(response.message, "admission queue full");

    // A and B still complete normally.
    std::string payload;
    ASSERT_TRUE(recvFrame(fd_a, payload, error)) << error;
    ASSERT_TRUE(decodeResponse(payload, response, error)) << error;
    EXPECT_EQ(response.status, Status::Ok);
    ASSERT_TRUE(recvFrame(fd_b, payload, error)) << error;
    ASSERT_TRUE(decodeResponse(payload, response, error)) << error;
    EXPECT_EQ(response.status, Status::Ok);
    closeSocket(fd_a);
    closeSocket(fd_b);

    EXPECT_EQ(harness.server->healthSnapshot().retry_later, 1u);
}

TEST(ServeServerTest, ExpiredDeadlineIsRefusedAtPopTime)
{
    ServerOptions options;
    options.workers = 1;
    options.queue_capacity = 8;
    TestServer harness(options, "deadline");

    std::string error;
    const int fd_a = connectUnix(harness.socketPath(), error);
    ASSERT_GE(fd_a, 0) << error;
    ASSERT_TRUE(sendFrame(
        fd_a, encodeRequest(runRequest(
                  "serve_test_slow",
                  {"--sleep-ms", "400", "--id", "10"}, 0.0, 1, 0))));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // Queued behind a 400 ms run with a 50 ms budget: by the time the
    // worker pops it, the deadline has passed and it must NOT run.
    Response response;
    ASSERT_TRUE(rawRoundTrip(
        harness.socketPath(),
        runRequest("serve_test_echo", {"--rows", "7"}, 50.0, 2, 0),
        response));
    EXPECT_EQ(response.status, Status::DeadlineExpired);

    std::string payload;
    ASSERT_TRUE(recvFrame(fd_a, payload, error)) << error;
    ASSERT_TRUE(decodeResponse(payload, response, error)) << error;
    EXPECT_EQ(response.status, Status::Ok);
    closeSocket(fd_a);

    const auto snapshot = harness.server->healthSnapshot();
    EXPECT_EQ(snapshot.deadline_expired, 1u);
    // The expired request never executed: only the slow run completed.
    EXPECT_EQ(snapshot.completed, 1u);
}

TEST(ServeServerTest, HealthReportsQueueAndCacheStats)
{
    ServerOptions options;
    options.workers = 3;
    options.queue_capacity = 17;
    TestServer harness(options, "health");

    ClientOptions copt;
    copt.socket_path = harness.socketPath();
    Client client(copt);
    Response response;
    std::string error;
    ASSERT_TRUE(client.run("serve_test_echo", {"--rows", "2"}, 0.0,
                           response, error))
        << error;
    ASSERT_TRUE(client.run("serve_test_echo", {"--rows", "2"}, 0.0,
                           response, error))
        << error;

    ASSERT_TRUE(client.health(response, error)) << error;
    EXPECT_EQ(response.status, Status::Ok);
    EXPECT_EQ(response.message, "HEALTHY");
    EXPECT_EQ(healthStat(response, "workers"), 3.0);
    EXPECT_EQ(healthStat(response, "queue_capacity"), 17.0);
    EXPECT_EQ(healthStat(response, "completed"), 2.0);
    EXPECT_EQ(healthStat(response, "cache_hits"), 1.0);
    EXPECT_EQ(healthStat(response, "draining"), 0.0);
}

TEST(ServeServerTest, HealthCarriesMetricsRegistryScrape)
{
    trace::MetricsRegistry registry;
    registry.counter("test.requests").add(4.0);
    registry.gauge("test.depth").set(7.0);
    auto &latency = registry.histogram("test.latency_ms");
    for (const double sample : {1.0, 2.0, 4.0, 8.0})
        latency.record(sample);

    ServerOptions options;
    options.metrics = &registry;
    TestServer harness(options, "health-metrics");

    ClientOptions copt;
    copt.socket_path = harness.socketPath();
    Client client(copt);
    Response response;
    std::string error;
    ASSERT_TRUE(client.run("serve_test_echo", {"--rows", "1"}, 0.0,
                           response, error))
        << error;
    ASSERT_TRUE(client.health(response, error)) << error;

    report::ResultStore store;
    ASSERT_TRUE(decodeStore(response.body, store, error)) << error;
    const auto *table = store.find("metrics");
    ASSERT_NE(table, nullptr);
    ASSERT_EQ(table->schema().columns().size(), 9u);

    bool saw_counter = false, saw_gauge = false, saw_histogram = false;
    bool saw_served = false;
    for (const auto &row : table->rows()) {
        const std::string &name = row[0].asString();
        if (name == "serve.queue.accepted") {
            saw_served = true;
            EXPECT_DOUBLE_EQ(row[3].asDouble(), 1.0);
        } else if (name == "test.requests") {
            saw_counter = true;
            EXPECT_EQ(row[1].asString(), "counter");
            EXPECT_DOUBLE_EQ(row[3].asDouble(), 4.0);
        } else if (name == "test.depth") {
            saw_gauge = true;
            EXPECT_EQ(row[1].asString(), "gauge");
            EXPECT_DOUBLE_EQ(row[3].asDouble(), 7.0);
        } else if (name == "test.latency_ms") {
            saw_histogram = true;
            EXPECT_EQ(row[1].asString(), "histogram");
            EXPECT_EQ(row[2].asUint(), 4u);       // count
            EXPECT_DOUBLE_EQ(row[4].asDouble(), 3.75);  // mean
            EXPECT_GT(row[7].asDouble(), 0.0);    // p99
        }
    }
    EXPECT_TRUE(saw_counter);
    EXPECT_TRUE(saw_gauge);
    EXPECT_TRUE(saw_histogram);
    EXPECT_TRUE(saw_served);

    // The scrape lists what the registry records (the server's serve.*
    // counters and the caller's own entries), never a hot-tier name:
    // the hot tier is read only by the programs that turn it on.
    std::set<std::string> hot_names;
    for (std::size_t c = 0; c < trace::hot::kCounterCount; ++c)
        hot_names.insert(
            trace::hot::counterName(static_cast<trace::hot::Counter>(c)));
    for (const auto &row : table->rows())
        EXPECT_EQ(hot_names.count(row[0].asString()), 0u)
            << row[0].asString();
}

TEST(ServeServerTest, ShutdownDrainsGracefully)
{
    ServerOptions options;
    TestServer harness(options, "drain");

    ClientOptions copt;
    copt.socket_path = harness.socketPath();
    Client client(copt);
    Response response;
    std::string error;
    ASSERT_TRUE(client.run("serve_test_echo", {"--rows", "1"}, 0.0,
                           response, error))
        << error;
    EXPECT_EQ(response.status, Status::Ok);

    ASSERT_TRUE(client.shutdownServer(response, error)) << error;
    EXPECT_EQ(response.status, Status::Ok);
    EXPECT_EQ(response.message, "draining");

    harness.server->join();
    EXPECT_TRUE(harness.server->healthSnapshot().draining);

    // New connections are refused after drain.
    ClientOptions copt2;
    copt2.socket_path = harness.socketPath();
    copt2.max_retries = 0;
    Client late(copt2);
    EXPECT_FALSE(late.run("serve_test_echo", {"--rows", "1"}, 0.0,
                          response, error));
}

TEST(ServeServerTest, WarmRestartServesPersistedResultsFromDisk)
{
    const auto dir = tempDir("warm_restart");
    const std::vector<std::string> args = {"--rows", "6", "--scale",
                                           "0.75"};
    const std::string reference = directBody("serve_test_echo", args);

    {
        report::ArtifactSink sink(dir);
        ServerOptions options;
        options.sink = &sink;
        TestServer harness(options, "warm_restart_a");
        ClientOptions copt;
        copt.socket_path = harness.socketPath();
        Client client(copt);
        Response response;
        std::string error;
        ASSERT_TRUE(client.run("serve_test_echo", args, 0.0, response,
                               error))
            << error;
        EXPECT_EQ(response.status, Status::Ok);
        EXPECT_FALSE(response.cached);
    }

    // A fresh process (fresh server + sink) over the same artifact
    // root answers from the persisted cache without running anything.
    report::ArtifactSink sink(dir);
    ServerOptions options;
    options.sink = &sink;
    TestServer harness(options, "warm_restart_b");
    EXPECT_EQ(harness.server->warmLoaded(), 1u);

    ClientOptions copt;
    copt.socket_path = harness.socketPath();
    Client client(copt);
    Response response;
    std::string error;
    ASSERT_TRUE(client.run("serve_test_echo", args, 0.0, response,
                           error))
        << error;
    EXPECT_EQ(response.status, Status::Ok);
    EXPECT_TRUE(response.cached);
    EXPECT_EQ(response.body, reference);
}

// ---------------------------------------------------------------------
// conn_io fault determinism.

struct FaultRunOutcome
{
    std::vector<std::string> bodies;
    std::uint64_t read_drops = 0;
    std::uint64_t write_faults = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t completed = 0;
};

/** Drive one client (fixed stream, sequential requests) against a
 *  server with conn_io faults armed and @p workers workers. */
FaultRunOutcome
faultedRun(std::size_t workers, const std::string &name)
{
    fault::FaultPlan plan;
    plan.seed = 42;
    plan.setRate(fault::Site::ConnIo, 0.3);

    ServerOptions options;
    options.workers = workers;
    options.faults = plan;
    options.conn_retries = 1;
    TestServer harness(options, name);

    ClientOptions copt;
    copt.socket_path = harness.socketPath();
    copt.stream = 7;
    copt.max_retries = 16;
    copt.retry_backoff_ms = 1.0;
    Client client(copt);

    FaultRunOutcome outcome;
    for (int i = 0; i < 12; ++i) {
        Response response;
        std::string error;
        EXPECT_TRUE(client.run(
            "serve_test_echo",
            {"--rows", std::to_string(1 + i % 4)}, 0.0, response,
            error))
            << error;
        EXPECT_EQ(response.status, Status::Ok);
        outcome.bodies.push_back(response.body);
    }
    const auto snapshot = harness.server->healthSnapshot();
    outcome.read_drops = snapshot.conn_read_drops;
    outcome.write_faults = snapshot.conn_write_faults;
    outcome.quarantined = snapshot.conn_quarantined;
    outcome.completed = snapshot.completed;
    return outcome;
}

TEST(ServeFaultTest, ConnIoScheduleIsIndependentOfWorkerCount)
{
    const auto one = faultedRun(1, "faults_w1");
    const auto four = faultedRun(4, "faults_w4");

    // The client's request identities (stream, sequence, attempt) are
    // identical in both runs, so every injected read drop and write
    // fault fires at exactly the same points regardless of server
    // threading.
    EXPECT_EQ(one.read_drops, four.read_drops);
    EXPECT_EQ(one.write_faults, four.write_faults);
    EXPECT_EQ(one.quarantined, four.quarantined);
    EXPECT_EQ(one.completed, four.completed);
    ASSERT_EQ(one.bodies.size(), four.bodies.size());
    for (std::size_t i = 0; i < one.bodies.size(); ++i)
        EXPECT_EQ(one.bodies[i], four.bodies[i]) << "request " << i;

    // The plan actually fired: a 0.3 rate over ~12+ opportunities is
    // astronomically unlikely to stay silent.
    EXPECT_GT(one.read_drops + one.write_faults, 0u);
}

TEST(ServeFaultTest, RetriedRequestDrawsFreshSchedule)
{
    // The same (stream, sequence) at a different attempt must consult
    // a different deterministic schedule — that is what lets a client
    // retry through an injected drop.
    fault::FaultPlan plan;
    plan.seed = 42;
    plan.setRate(fault::Site::ConnIo, 0.5);

    bool differs = false;
    for (std::uint64_t seq = 0; seq < 16 && !differs; ++seq) {
        const auto base = runRequest("serve_test_echo", {}, 0.0, 7,
                                     seq);
        std::vector<bool> fired;
        for (int attempt = 0; attempt < 2; ++attempt) {
            fault::FaultInjector injector(
                plan,
                exec::seedCombine(exec::mix64(base.stream),
                                  base.sequence),
                attempt);
            fired.push_back(injector.fire(fault::Site::ConnIo, 0.0));
        }
        differs = fired[0] != fired[1];
    }
    EXPECT_TRUE(differs);
}

} // namespace
