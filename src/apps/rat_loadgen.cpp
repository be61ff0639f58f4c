// rat_loadgen — open-loop load generator and SLO gate for the serving
// stack (docs/LOADGEN.md).
//
// Replays a deterministic worksheet mix against a rat.svc.v1 TCP
// endpoint — a rat_serve instance or a rat_router fleet, the protocol is
// identical — on a precomputed arrival schedule: requests go out at
// their scheduled times whether or not the server keeps up (open loop),
// and each latency is measured from the scheduled send, so server stalls
// land in the tail percentiles instead of being absorbed by a waiting
// client. Emits a rat.load.v1 JSON report and can assert SLOs for CI.
//
// Usage:
//   rat_loadgen --port=N | --port-file=<path>   target endpoint
//               [--host=A.B.C.D]      target address (default 127.0.0.1)
//               [--fixtures=<dir>]    worksheet mix source: all *.rat in
//                                     the directory, sorted (required)
//               [--requests=N]        requests per step (default 1000)
//               [--connections=N]     simulated clients (default 64)
//               [--rate=X]            offered arrival rate, req/s
//                                     (default 500)
//               [--sweep=X1,X2,...]   run one step per rate instead,
//                                     mapping the throughput-latency
//                                     frontier in one report
//               [--arrival=constant|poisson]
//                                     inter-arrival shape (default
//                                     constant)
//               [--seed=N]            schedule + payload seed (default 1)
//               [--duplicate-ratio=X] fraction of requests replaying a
//                                     base worksheet byte-identically,
//                                     i.e. cacheable traffic (default
//                                     0.5)
//               [--deadline-ms=X]     per-request server deadline
//               [--no-cache]          ask the server to bypass its cache
//               [--timeout-sec=X]     give up this long after the last
//                                     scheduled send (default 30)
//               [--report=<path>]     write rat.load.v1 there instead of
//                                     stdout
//               [--slo-p99-ms=X]      fail (exit 3) when any step's p99
//                                     exceeds X ms
//               [--slo-error-rate=X]  fail (exit 3) when any step's
//                                     (errors+lost)/scheduled exceeds X
//
// Exit codes: 0 success, 1 usage error, 2 run failure (endpoint
// unreachable), 3 SLO violation.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "load/mix.hpp"
#include "load/runner.hpp"
#include "load/schedule.hpp"
#include "util/cli.hpp"

namespace {

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s --port=N|--port-file=<path> --fixtures=<dir> "
               "[--host=A.B.C.D] [--requests=N] [--connections=N] "
               "[--rate=X] [--sweep=X1,X2,...] [--arrival=constant|poisson] "
               "[--seed=N] [--duplicate-ratio=X] [--deadline-ms=X] "
               "[--no-cache] [--timeout-sec=X] [--report=<path>] "
               "[--slo-p99-ms=X] [--slo-error-rate=X]\n",
               program);
  return 1;
}

/// "100,200,400" -> rates; throws std::invalid_argument on junk.
std::vector<double> parse_sweep(const std::string& spec) {
  std::vector<double> rates;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string token = spec.substr(start, comma - start);
    if (token.empty())
      throw std::invalid_argument("--sweep: empty rate in list");
    const double rate = rat::util::parse_finite(token, "--sweep");
    if (!(rate > 0.0))
      throw std::invalid_argument("--sweep: bad rate '" + token + "'");
    rates.push_back(rate);
    start = comma + 1;
  }
  return rates;
}

int read_port_file(const std::string& path) {
  std::ifstream f(path);
  int port = 0;
  if (!(f >> port) || port < 1 || port > 65535)
    throw std::invalid_argument("--port-file: no valid port in " + path);
  return port;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rat;
  const util::Cli cli(argc, argv);

  load::RunConfig cfg;
  load::SloConfig slo;
  std::vector<double> rates;
  std::string fixtures;
  std::string report_path;
  try {
    cli.require_known({"host", "port", "port-file", "fixtures", "requests",
                       "connections", "rate", "sweep", "arrival", "seed",
                       "duplicate-ratio", "deadline-ms", "no-cache",
                       "timeout-sec", "report", "slo-p99-ms",
                       "slo-error-rate", "help"});
    if (cli.has("help")) return usage(argv[0]);
    if (!cli.positional().empty())
      throw std::invalid_argument("unexpected positional argument");
    cfg.host = cli.get_or("host", cfg.host);
    if (cli.has("port"))
      cfg.port = static_cast<int>(cli.get_size_t("port", 0, 1, 65535));
    else if (const auto pf = cli.get("port-file"))
      cfg.port = read_port_file(*pf);
    else
      throw std::invalid_argument("one of --port / --port-file is required");

    const auto fx = cli.get("fixtures");
    if (!fx) throw std::invalid_argument("--fixtures=<dir> is required");
    fixtures = *fx;

    cfg.requests = cli.get_size_t("requests", cfg.requests, 1);
    cfg.connections = cli.get_size_t("connections", cfg.connections, 1, 65536);
    cfg.rate_hz = cli.get_double("rate", cfg.rate_hz);
    if (!(cfg.rate_hz > 0.0))
      throw std::invalid_argument("--rate must be > 0");
    const auto arrival = load::parse_arrival(cli.get_or("arrival", "constant"));
    if (!arrival)
      throw std::invalid_argument("--arrival must be constant or poisson");
    cfg.arrival = *arrival;
    cfg.seed = static_cast<std::uint64_t>(cli.get_size_t("seed", 1));
    cfg.duplicate_ratio =
        cli.get_double("duplicate-ratio", cfg.duplicate_ratio);
    if (!(0.0 <= cfg.duplicate_ratio && cfg.duplicate_ratio <= 1.0))
      throw std::invalid_argument("--duplicate-ratio outside [0, 1]");
    cfg.deadline_ms = cli.get_double("deadline-ms", cfg.deadline_ms);
    cfg.no_cache = cli.get_bool("no-cache", false);
    cfg.timeout_sec = cli.get_double("timeout-sec", cfg.timeout_sec);
    load::timeout_ns(cfg);  // a timeout run_step would refuse is a usage error
    report_path = cli.get_or("report", "");
    slo.p99_ms = cli.get_double("slo-p99-ms", slo.p99_ms);
    slo.error_rate = cli.get_double("slo-error-rate", slo.error_rate);

    if (const auto sweep = cli.get("sweep"))
      rates = parse_sweep(*sweep);
    else
      rates.push_back(cfg.rate_hz);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rat_loadgen: %s\n", e.what());
    return usage(argv[0]);
  }

  int exit_code = 0;
  std::string report;
  try {
    load::Mix mix = load::Mix::from_fixture_dir(fixtures);
    std::vector<load::StepResult> steps;
    std::vector<std::string> violations;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      load::RunConfig step_cfg = cfg;
      step_cfg.rate_hz = rates[i];
      // Per-step seed offset keeps sweep steps independent but still a
      // pure function of --seed.
      step_cfg.seed = cfg.seed + i;
      const load::StepResult step = load::run_step(step_cfg, mix);
      std::fprintf(stderr,
                   "rat_loadgen: rate %g req/s -> achieved %.1f req/s, "
                   "p50 %.3f ms, p99 %.3f ms, ok %llu, errors %llu, "
                   "lost %llu, drops %llu%s\n",
                   step.offered_rate_hz, step.achieved_rate_hz,
                   step.latency.percentile(50.0) / 1e6,
                   step.latency.percentile(99.0) / 1e6,
                   static_cast<unsigned long long>(step.ok),
                   static_cast<unsigned long long>(step.errors),
                   static_cast<unsigned long long>(step.lost),
                   static_cast<unsigned long long>(step.connection_drops),
                   step.timed_out ? " (timed out)" : "");
      const std::vector<std::string> v = load::slo_violations(step, slo);
      violations.insert(violations.end(), v.begin(), v.end());
      steps.push_back(step);
    }
    report = load::load_report_json(cfg, steps, slo, violations);
    for (const std::string& v : violations)
      std::fprintf(stderr, "rat_loadgen: SLO violation: %s\n", v.c_str());
    if (!violations.empty()) exit_code = 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rat_loadgen: %s\n", e.what());
    return 2;
  }

  if (report_path.empty()) {
    std::printf("%s\n", report.c_str());
  } else {
    std::ofstream f(report_path);
    if (!f) {
      std::fprintf(stderr, "rat_loadgen: cannot write %s\n",
                   report_path.c_str());
      return 2;
    }
    f << report << '\n';
    if (!f.good()) return 2;
  }
  return exit_code;
}
