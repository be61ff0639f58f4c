// rat_serve — long-running RAT prediction service.
//
// Serves rat.svc.v1 newline-delimited JSON requests (docs/SERVICE.md)
// over a loopback TCP listener and, with --stdio, over stdin/stdout.
// Worksheets are validated by the strict parser, evaluated on the
// shared thread pool, and memoized in a sharded LRU keyed by canonical
// worksheet fingerprint, so iterative design-space drivers pay for each
// distinct design once.
//
// Usage:
//   rat_serve [--port=N] [--port-file=<path>] [--backlog=N]
//             [--write-buffer-bytes=N] [--so-sndbuf=N]
//                                   the client flags rat_router takes
//                                   too (svc/clients.hpp)
//             [--stdio]             also serve stdin -> stdout
//             [--no-tcp]            stdio only (requires --stdio)
//             [--threads=N]         worker threads (sets RAT_THREADS
//                                   before the pool exists; 0 = auto)
//             [--cache-capacity=N]  result-cache entries (default 1024,
//                                   0 disables caching)
//             [--cache-dir=<path>]  durable result cache (docs/STORE.md):
//                                   warm-start from the store on boot,
//                                   journal every fresh result
//             [--queue-capacity=N]  admission limit: max queued+running
//                                   evaluations (default 256); excess
//                                   requests get E_OVERLOADED
//             [--deadline-ms=X]     default per-request deadline
//                                   (default 0 = none)
//             [--metrics=<path>]    rat.metrics.v1 JSON on exit
//                                   (RAT_METRICS env is the fallback);
//                                   summary table on stderr
//
// Graceful shutdown: SIGINT/SIGTERM (or a {"op":"shutdown"} request)
// stop accepting, drain every admitted request, flush --metrics, exit 0.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s [--port=N] [--port-file=<path>] [--stdio] "
               "[--no-tcp] [--threads=N] [--cache-capacity=N] "
               "[--cache-dir=<path>] [--queue-capacity=N] "
               "[--deadline-ms=X] [--backlog=N] [--write-buffer-bytes=N] "
               "[--so-sndbuf=N] [--metrics=<path>]\n",
               program);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rat;
  const util::Cli cli(argc, argv);

  svc::ServiceConfig svc_cfg;
  svc::ServerConfig srv_cfg;
  std::size_t n_threads = 0;
  std::optional<std::string> port_file;
  std::string metrics_path;
  try {
    cli.require_known({"port", "port-file", "stdio", "no-tcp", "threads",
                       "cache-capacity", "cache-dir", "queue-capacity",
                       "deadline-ms", "backlog", "write-buffer-bytes",
                       "so-sndbuf", "metrics", "help"});
    if (cli.has("help")) return usage(argv[0]);
    if (!cli.positional().empty())
      throw std::invalid_argument("unexpected positional argument");
    srv_cfg.client = svc::parse_client_flags(cli);
    port_file = cli.get("port-file");
    n_threads = cli.get_size_t("threads", 0, 0, 256);
    svc_cfg.cache_capacity =
        cli.get_size_t("cache-capacity", svc_cfg.cache_capacity);
    svc_cfg.queue_capacity =
        cli.get_size_t("queue-capacity", svc_cfg.queue_capacity, 1);
    svc_cfg.default_deadline_ms = cli.get_double("deadline-ms", 0.0);
    if (!(svc_cfg.default_deadline_ms >= 0.0))
      throw std::invalid_argument("--deadline-ms must be >= 0");
    svc_cfg.cache_dir = cli.get_or("cache-dir", "");
    if (cli.has("cache-dir") && svc_cfg.cache_dir.empty())
      throw std::invalid_argument("--cache-dir needs a path");
    srv_cfg.stdio = cli.has("stdio");
    srv_cfg.tcp = !cli.has("no-tcp");
    if (!srv_cfg.tcp && !srv_cfg.stdio)
      throw std::invalid_argument("--no-tcp requires --stdio");
    metrics_path = obs::enable_export(cli.get("metrics"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rat_serve: %s\n", e.what());
    return usage(argv[0]);
  }

  // The shared pool sizes itself from RAT_THREADS on first use; export
  // the flag before anything touches the pool.
  if (n_threads > 0)
    ::setenv("RAT_THREADS", std::to_string(n_threads).c_str(), 1);

  std::optional<svc::Service> service;
  try {
    service.emplace(svc_cfg);
  } catch (const std::exception& e) {
    // A corrupt store snapshot or unusable --cache-dir arrives here as a
    // structured E_* StoreError message.
    std::fprintf(stderr, "rat_serve: %s\n", e.what());
    return 1;
  }
  if (!svc_cfg.cache_dir.empty())
    std::fprintf(stderr, "rat_serve: warm-started %llu cached result(s)\n",
                 static_cast<unsigned long long>(service->stats().cache_warmed));

  svc::Server server(*service, srv_cfg);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rat_serve: %s\n", e.what());
    return 1;
  }

  svc::stop_on_signals(server.wake_fd());

  if (srv_cfg.tcp) {
    // Announced on stdout (and flushed) so scripts can scrape the
    // ephemeral port; --port-file is the race-free variant.
    std::printf("rat_serve: listening on 127.0.0.1:%d\n", server.port());
    std::fflush(stdout);
    if (!svc::write_port_file(port_file, server.port())) {
      std::fprintf(stderr, "rat_serve: cannot write port file\n");
      return 1;
    }
  }
  if (srv_cfg.stdio)
    std::fprintf(stderr, "rat_serve: serving stdin/stdout\n");

  server.run();  // blocks until SIGINT/SIGTERM/shutdown op, then drains

  const svc::Service::Stats st = service->stats();
  std::fprintf(stderr,
               "rat_serve: drained: %llu requests (%llu ok, %llu error), "
               "cache %llu hit / %llu miss / %llu evicted\n",
               static_cast<unsigned long long>(st.requests),
               static_cast<unsigned long long>(st.responses_ok),
               static_cast<unsigned long long>(st.responses_error),
               static_cast<unsigned long long>(st.cache.hits),
               static_cast<unsigned long long>(st.cache.misses),
               static_cast<unsigned long long>(st.cache.evictions));

  if (!metrics_path.empty()) {
    // Quiesce the pool so no worker's trailing counters miss the export.
    if (util::ThreadPool* pool = util::ThreadPool::shared_if_created())
      pool->wait_idle();
    if (!io::write_metrics_file(metrics_path)) return 1;
    std::fprintf(stderr, "metrics (%s):\n%s", metrics_path.c_str(),
                 obs::summary_table().c_str());
  }
  return 0;
}
