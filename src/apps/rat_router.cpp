// rat_router — fingerprint-sharded front-end for rat_serve fleets.
//
// Speaks the same rat.svc.v1 newline-JSON protocol as rat_serve
// (docs/SERVICE.md) on a loopback TCP listener, but evaluates nothing
// itself: it spawns N rat_serve worker processes (--stdio --no-tcp,
// supervised over stdin/stdout pipes) and consistent-hashes every
// evaluate request by its rat.fp.v1 worksheet fingerprint to the worker
// that owns that shard — so each distinct design is evaluated and cached
// exactly once across the fleet, and with --cache-dir each worker
// warm-starts its own durable shard. Workers that die are respawned in
// place and their in-flight requests re-forwarded; ping/stats fan out
// and aggregate. Responses are byte-identical to a direct rat_serve.
//
// Usage:
//   rat_router [--workers=N]         worker processes (default 4)
//              [--port=N] [--port-file=<path>] [--backlog=N]
//              [--write-buffer-bytes=N] [--so-sndbuf=N]
//                                    the client flags rat_serve takes too
//                                    (svc/clients.hpp)
//              [--worker-bin=<path>] worker executable (default: the
//                                    rat_serve next to this binary, or
//                                    $PATH when argv[0] has no slash)
//              [--worker-pid-file=<path>]
//                                    rewritten after every (re)spawn:
//                                    one pid per line in shard order
//              [--cache-dir=<path>]  per-worker durable cache shards
//                                    (<path>/shard-<i>)
//              [--cache-capacity=N]  forwarded to each worker
//              [--queue-capacity=N]  forwarded to each worker
//              [--deadline-ms=X]     forwarded to each worker
//              [--threads=N]         forwarded to each worker
//              [--worker-buffer-bytes=N]
//                                    per-worker bound on queued request
//                                    bytes; beyond it the shard answers
//                                    E_OVERLOADED locally (default 4 MiB)
//              [--metrics=<path>]    rat.metrics.v1 JSON on exit
//
// Graceful shutdown: SIGINT/SIGTERM (or a {"op":"shutdown"} request)
// stop accepting, answer every admitted request, close the workers'
// stdins so each drains and exits cleanly, reap them, exit 0.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "svc/router.hpp"
#include "util/cli.hpp"

namespace {

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s [--workers=N] [--port=N] [--port-file=<path>] "
               "[--worker-bin=<path>] [--worker-pid-file=<path>] "
               "[--cache-dir=<path>] [--cache-capacity=N] "
               "[--queue-capacity=N] [--deadline-ms=X] [--threads=N] "
               "[--backlog=N] [--write-buffer-bytes=N] "
               "[--worker-buffer-bytes=N] [--so-sndbuf=N] "
               "[--metrics=<path>]\n",
               program);
  return 1;
}

/// Default worker binary: the rat_serve sitting next to this executable
/// (the normal build-tree layout); a bare name falls back to $PATH via
/// execvp.
std::string sibling_rat_serve(const char* argv0) {
  const std::string self(argv0 ? argv0 : "");
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "rat_serve";
  return self.substr(0, slash + 1) + "rat_serve";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rat;
  const util::Cli cli(argc, argv);

  svc::RouterConfig cfg;
  std::string metrics_path;
  try {
    cli.require_known({"workers", "port", "port-file", "worker-bin",
                       "worker-pid-file", "cache-dir", "cache-capacity",
                       "queue-capacity", "deadline-ms", "threads", "backlog",
                       "write-buffer-bytes", "worker-buffer-bytes",
                       "so-sndbuf", "metrics", "help"});
    if (cli.has("help")) return usage(argv[0]);
    if (!cli.positional().empty())
      throw std::invalid_argument("unexpected positional argument");
    cfg.n_workers = cli.get_size_t("workers", 4, 1, 256);
    cfg.client = svc::parse_client_flags(cli);
    cfg.max_worker_pipe_bytes = cli.get_size_t(
        "worker-buffer-bytes", cfg.max_worker_pipe_bytes, 1);
    cfg.cache_dir = cli.get_or("cache-dir", "");
    if (cli.has("cache-dir") && cfg.cache_dir.empty())
      throw std::invalid_argument("--cache-dir needs a path");
    cfg.worker_pid_file = cli.get_or("worker-pid-file", "");

    // Worker command line: the stdio transport plus whichever service
    // flags the operator wants the whole fleet to share.
    cfg.worker_argv = {cli.get_or("worker-bin", sibling_rat_serve(argv[0])),
                       "--stdio", "--no-tcp"};
    for (const char* fwd :
         {"cache-capacity", "queue-capacity", "threads", "deadline-ms"}) {
      if (!cli.has(fwd)) continue;
      const std::string value = cli.get_or(fwd, "");
      if (value.empty())
        throw std::invalid_argument(std::string("--") + fwd +
                                    " needs a value");
      cfg.worker_argv.push_back(std::string("--") + fwd + "=" + value);
    }
    metrics_path = obs::enable_export(cli.get("metrics"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rat_router: %s\n", e.what());
    return usage(argv[0]);
  }

  svc::Router router(cfg);
  try {
    router.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rat_router: %s\n", e.what());
    return 1;
  }

  svc::stop_on_signals(router.wake_fd());

  std::printf("rat_router: listening on 127.0.0.1:%d (%zu workers)\n",
              router.port(), cfg.n_workers);
  std::fflush(stdout);
  if (!svc::write_port_file(cli, router.port())) {
    std::fprintf(stderr, "rat_router: cannot write port file\n");
    return 1;
  }

  router.run();  // blocks until SIGINT/SIGTERM/shutdown op, then drains

  const svc::Router::Stats st = router.stats();
  std::fprintf(stderr,
               "rat_router: drained: %llu requests, %llu forwarded "
               "(%llu rerouted), %llu worker death(s), %llu respawn(s)\n",
               static_cast<unsigned long long>(st.requests),
               static_cast<unsigned long long>(st.forwarded),
               static_cast<unsigned long long>(st.rerouted),
               static_cast<unsigned long long>(st.worker_deaths),
               static_cast<unsigned long long>(st.respawns));

  if (!metrics_path.empty()) {
    if (!obs::write_metrics_file(metrics_path)) return 1;
    std::fprintf(stderr, "metrics (%s):\n%s", metrics_path.c_str(),
                 obs::summary_table().c_str());
  }
  return 0;
}
