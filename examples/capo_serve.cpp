/**
 * @file
 * capo-serve: the experiment-serving daemon.
 *
 * Binds a Unix-domain socket (and/or a loopback TCP port), resolves
 * run requests against the experiment registry, answers repeated
 * configurations from the content-addressed result cache, and exits 0
 * on SIGINT/SIGTERM or a client shutdown request after a graceful
 * drain. See DESIGN.md section 10.
 *
 *     capo-serve --socket /tmp/capo.sock --artifacts out --workers 2
 *     capo-serve --tcp --port 0      # kernel-assigned, printed
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <memory>
#include <thread>

#include "fault/fault.hh"
#include "report/artifact.hh"
#include "serve/server.hh"
#include "support/flags.hh"
#include "trace/metrics_registry.hh"

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace capo;

    support::Flags flags(
        "capo-serve: serve registered experiments over a local socket "
        "with a content-addressed result cache and admission control");
    flags.addString("socket", "", "Unix-domain socket path to listen on");
    flags.addBool("tcp", false, "also listen on loopback TCP");
    flags.addInt("port", 0, "TCP port (0 = kernel-assigned, printed)");
    flags.addInt("queue", 64, "admission queue capacity");
    flags.addInt("workers", 2, "worker threads executing runs");
    flags.addDouble("deadline-ms", 0.0,
                    "default per-request deadline (0 = none)");
    flags.addString("faults", "",
                    "fault spec (e.g. conn=0.2); conn-io drives "
                    "injected connection drops");
    flags.addInt("fault-seed", 0, "fault plan seed salt");
    flags.addInt("conn-retries", 2,
                 "response-write retries before quarantining a "
                 "faulted connection");
    flags.addString("artifacts", "",
                    "artifact root for the on-disk result cache "
                    "(empty = in-memory cache only)");
    flags.addString("cache-dir", "cache",
                    "cache directory under the artifact root");
    flags.addInt("cache-max", 0,
                 "cache entry cap, LRU-evicted past it "
                 "(0 = unbounded)");
    flags.addInt("cache-max-bytes", 0,
                 "cache payload-byte cap, LRU-evicted past it "
                 "(0 = unbounded)");
    flags.parse(argc, argv);

    // Sizes become size_t and the port an int: a negative value would
    // wrap (--queue -1 turns admission control off, --workers -1 spawns
    // threads until creation fails), so refuse it before binding.
    for (const char *name :
         {"queue", "workers", "cache-max", "cache-max-bytes"}) {
        if (flags.getInt(name) < 0) {
            std::cerr << "capo-serve: --" << name
                      << " must not be negative\n";
            return 2;
        }
    }
    if (flags.getInt("port") < 0 || flags.getInt("port") > 65535) {
        std::cerr << "capo-serve: --port must be in 0-65535\n";
        return 2;
    }

    serve::ServerOptions options;
    options.socket_path = flags.getString("socket");
    options.tcp = flags.getBool("tcp");
    options.tcp_port = static_cast<int>(flags.getInt("port"));
    options.queue_capacity =
        static_cast<std::size_t>(flags.getInt("queue"));
    options.workers = static_cast<std::size_t>(flags.getInt("workers"));
    options.default_deadline_ms = flags.getDouble("deadline-ms");
    options.conn_retries =
        static_cast<int>(flags.getInt("conn-retries"));
    options.cache_dir = flags.getString("cache-dir");
    options.cache_max_entries =
        static_cast<std::size_t>(flags.getInt("cache-max"));
    options.cache_max_bytes =
        static_cast<std::size_t>(flags.getInt("cache-max-bytes"));

    if (!flags.getString("faults").empty()) {
        std::string error;
        if (!fault::parseFaultSpec(flags.getString("faults"),
                                   options.faults, error)) {
            std::cerr << "capo-serve: --faults: " << error << "\n";
            return 2;
        }
    }
    options.faults.seed =
        static_cast<std::uint64_t>(flags.getInt("fault-seed"));

    if (options.socket_path.empty() && !options.tcp) {
        std::cerr << "capo-serve: need --socket PATH and/or --tcp\n";
        return 2;
    }

    std::unique_ptr<report::ArtifactSink> sink;
    if (!flags.getString("artifacts").empty()) {
        sink = std::make_unique<report::ArtifactSink>(
            flags.getString("artifacts"));
        options.sink = sink.get();
    }
    trace::MetricsRegistry metrics;
    options.metrics = &metrics;

    serve::ExperimentServer server(std::move(options));
    std::string error;
    if (!server.start(error)) {
        std::cerr << "capo-serve: " << error << "\n";
        return 1;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    if (!flags.getString("socket").empty())
        std::cout << "capo-serve: listening on "
                  << flags.getString("socket") << "\n";
    if (flags.getBool("tcp"))
        std::cout << "capo-serve: listening on 127.0.0.1:"
                  << server.tcpPort() << "\n";
    std::cout << "capo-serve: cache warm-loaded "
              << server.warmLoaded() << " entries\n"
              << std::flush;

    // Serve until a signal arrives or a client's shutdown request
    // flips the server into draining.
    while (!g_stop.load() && !server.healthSnapshot().draining)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::cout << "capo-serve: draining\n" << std::flush;
    server.drain();
    server.join();

    const auto snapshot = server.healthSnapshot();
    std::cout << "capo-serve: done (completed " << snapshot.completed
              << ", cache hits " << snapshot.cache_hits << "/"
              << snapshot.cache_hits + snapshot.cache_misses << ")\n";
    return 0;
}
