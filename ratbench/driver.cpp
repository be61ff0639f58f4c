// ratbench_driver: the in-process half of the RAT benchmark (run.py is
// the other half). It links the repository's libraries unmodified and
// measures them only through their public functions.
//
//   ratbench_driver host
//       Build facts for the host record (SIMD lanes, compiler, build type).
//   ratbench_driver session --workload=W --seed=N --port=P --fixtures=DIR
//       Load generator for a live rat_serve / rat_router. Reads commands
//       on stdin, answers one JSON line each:
//         step <rate_hz> <requests> <timeout_sec> <seed>
//             one open-loop load::run_step (Poisson, 4 connections)
//         check <samples>
//             sampled served responses vs in-process Service::submit
//         stats
//             the rat.svc.v1 stats op
//   ratbench_driver layers --workload=W --seed=N --seconds=S --fixtures=DIR
//                          --spans=PATH
//       Replays the workload's request stream in-process through every
//       serving layer under benchmark spans (the traced run).
//   ratbench_driver explore --seed=N --seconds=S --trace=0|1 --dir=DIR
//       The explore workload: seeded Figure-1 campaigns through
//       explore::explore_design_space_pruned with a PlanCache.
//
// Every command prints one JSON object on stdout.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/designspace.hpp"
#include "core/evaluation.hpp"
#include "core/parameters.hpp"
#include "core/throughput.hpp"
#include "explore/explorer.hpp"
#include "explore/plan_cache.hpp"
#include "io/json.hpp"
#include "load/mix.hpp"
#include "load/runner.hpp"
#include "obs/metrics.hpp"
#include "rcsim/device.hpp"
#include "svc/cache.hpp"
#include "svc/fingerprint.hpp"
#include "svc/protocol.hpp"
#include "svc/router.hpp"
#include "svc/service.hpp"
#include "trace.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace rat;
using ratbench::now_ns;
using ratbench::Scope;
using ratbench::Tracer;

// ---- small helpers ----

/// One JSON object built member by member; numbers keep every digit.
class JsonObj {
 public:
  JsonObj& num(const std::string& key, double v) {
    return raw(key, std::isfinite(v) ? io::json_number(v) : "null");
  }
  JsonObj& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObj& str(const std::string& key, const std::string& v) {
    return raw(key, io::json_str(v));
  }
  JsonObj& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObj& raw(const std::string& key, const std::string& json) {
    text_ += text_.size() > 1 ? "," : "";
    text_ += io::json_str(key) + ":" + json;
    return *this;
  }
  std::string done() const { return text_ + "}"; }

 private:
  std::string text_ = "{";
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of @p v (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double vm_hwm_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream text;
  text << f.rdbuf();
  return text.str();
}

// ---- serving workloads ----

struct ServingWorkload {
  std::string name;
  double duplicate_ratio = 1.0;
};

ServingWorkload serving_workload(const std::string& name) {
  if (name == "direct_hot") return {name, 1.0};
  if (name == "routed_cold") return {name, 0.0};
  throw std::invalid_argument("unknown serving workload " + name);
}

/// The three good case-study fixtures, in sorted-name order like
/// load::Mix::from_fixture_dir (the broken fixture is left out).
load::Mix fixture_mix(const std::string& dir) {
  load::Mix mix;
  for (const char* name : {"md.rat", "pdf1d.rat", "pdf2d.rat"})
    mix.add(name, read_file(std::filesystem::path(dir) / name));
  return mix;
}

std::string evaluate_line(const std::string& id, const std::string& ws) {
  return "{\"id\":" + io::json_str(id) +
         ",\"op\":\"evaluate\",\"worksheet\":" + io::json_str(ws) + "}";
}

/// Blocking one-line-at-a-time client for checks and the stats op.
class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      throw std::runtime_error("cannot connect to port " +
                               std::to_string(port));
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  std::string call(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + off, out.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return reply;
      }
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) throw std::runtime_error("connection closed");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Service::submit, waiting for the response; @p answered_ns receives
/// the time the response reached on_response.
std::string submit_and_wait(svc::Service& service, const std::string& line,
                            std::uint64_t* answered_ns = nullptr) {
  std::mutex mu;
  std::condition_variable cv;
  std::optional<std::string> reply;
  std::uint64_t at = 0;
  service.submit(line, [&](std::string response) {
    const std::uint64_t t = now_ns();
    std::lock_guard lock(mu);
    at = t;
    reply = std::move(response);
    cv.notify_one();
  });
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return reply.has_value(); });
  if (answered_ns) *answered_ns = at;
  return *reply;
}

std::string error_code_of(const std::string& line) {
  if (line.find("\"status\":\"ok\"") != std::string::npos) return "";
  const std::size_t key = line.find("\"code\":\"");
  if (key == std::string::npos) return "E_UNKNOWN";
  const std::size_t start = key + 8;
  return line.substr(start, line.find('"', start) - start);
}

/// @p offered_real_hz is the rate the step's Poisson schedule actually
/// realized (requests over schedule span), which the knee reports.
std::string step_json(const load::StepResult& s, double offered_real_hz) {
  constexpr double kNsPerMs = 1e6;
  std::string codes = "{";
  for (const auto& [code, n] : s.error_codes)
    codes += (codes.size() > 1 ? "," : "") + io::json_str(code) + ":" +
             std::to_string(n);
  codes += "}";
  return JsonObj()
      .num("offered_hz", s.offered_rate_hz)
      .num("offered_real_hz", offered_real_hz)
      .num("achieved_hz", s.achieved_rate_hz)
      .num("duration_s", s.duration_sec)
      .count("sent", s.sent)
      .count("ok", s.ok)
      .count("errors", s.errors)
      .count("lost", s.lost)
      .count("connection_drops", s.connection_drops)
      .flag("timed_out", s.timed_out)
      .raw("error_codes", codes)
      .count("samples", s.latency.count())
      .num("p50_ms", s.latency.percentile(50.0) / kNsPerMs)
      .num("p99_ms", s.latency.percentile(99.0) / kNsPerMs)
      .num("p999_ms", s.latency.percentile(99.9) / kNsPerMs)
      .num("max_ms", static_cast<double>(s.latency.max()) / kNsPerMs)
      .done();
}

int cmd_session(const util::Cli& cli) {
  const ServingWorkload wl = serving_workload(cli.get_or("workload", ""));
  const int port = static_cast<int>(cli.get_int("port", 0));
  load::Mix mix = fixture_mix(cli.get_or("fixtures", ""));
  // The check stream draws from its own generator so checks never shift
  // the load steps' request stream.
  util::Rng check_rng(static_cast<std::uint64_t>(cli.get_int("seed", 1)) ^
                      0x5bd1e995u);
  std::unique_ptr<svc::Service> reference;  // created on the first check

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream cmd(line);
    std::string op;
    cmd >> op;
    std::string reply;
    try {
      if (op == "step") {
        load::RunConfig cfg;
        cfg.port = port;
        cfg.connections = 4;
        cfg.arrival = load::Arrival::kPoisson;
        cfg.duplicate_ratio = wl.duplicate_ratio;
        cmd >> cfg.rate_hz >> cfg.requests >> cfg.timeout_sec >> cfg.seed;
        const std::vector<std::uint64_t> offsets = load::build_schedule(
            cfg.arrival, cfg.rate_hz, cfg.requests, cfg.seed);
        const double span_s = static_cast<double>(offsets.back()) / 1e9;
        const double real_hz =
            span_s > 0.0 ? static_cast<double>(cfg.requests - 1) / span_s
                         : cfg.rate_hz;
        reply = step_json(load::run_step(cfg, mix), real_hz);
      } else if (op == "check") {
        std::size_t samples = 0;
        cmd >> samples;
        if (!reference) reference = std::make_unique<svc::Service>();
        LineClient client(port);
        std::size_t mismatches = 0;
        std::string codes, first_mismatch;
        for (std::size_t i = 0; i < samples; ++i) {
          const std::string request = evaluate_line(
              "c" + std::to_string(i), mix.next(check_rng, wl.duplicate_ratio));
          const std::string served = client.call(request);
          const std::string local = submit_and_wait(*reference, request);
          if (served != local) {
            ++mismatches;
            if (first_mismatch.empty()) first_mismatch = served;
          }
          const std::string code = error_code_of(served);
          if (!code.empty()) codes += (codes.empty() ? "" : ",") + code;
        }
        reply = JsonObj()
                    .count("checked", samples)
                    .count("mismatches", mismatches)
                    .str("error_codes", codes)
                    .str("first_mismatch", first_mismatch.substr(0, 300))
                    .done();
      } else if (op == "stats") {
        LineClient client(port);
        reply = JsonObj()
                    .raw("stats", client.call("{\"id\":\"stats\",\"op\":\"stats\"}"))
                    .done();
      } else {
        reply = JsonObj().str("error", "unknown command " + op).done();
      }
    } catch (const std::exception& e) {
      reply = JsonObj().str("error", e.what()).done();
    }
    std::cout << reply << std::endl;
  }
  return 0;
}

// ---- in-process replay of a serving workload (traced run) ----

int cmd_layers(const util::Cli& cli) {
  const ServingWorkload wl = serving_workload(cli.get_or("workload", ""));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 4.0);
  load::Mix mix = fixture_mix(cli.get_or("fixtures", ""));
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);  // run_step's payload stream
  auto next_line = [&](std::size_t i) {
    return evaluate_line("r" + std::to_string(i),
                         mix.next(rng, wl.duplicate_ratio));
  };

  // The live servers' cache geometry, warmed like theirs: past capacity
  // on the cold workload, so every timed put inserts and evicts. The two
  // services see the same warm-up: `service` times round trips with
  // observability off, `observed` has it on to read its pool's wait.
  svc::ResultCache cache(1024, 8);
  svc::Service service, observed;
  const std::size_t warm = wl.duplicate_ratio > 0.5 ? 64 : 1536;
  for (std::size_t i = 0; i < warm; ++i) {
    const std::string line = next_line(i);
    const svc::Request req = svc::parse_request(line);
    const core::RatInputs in = core::RatInputs::parse(req.worksheet);
    const std::string key = svc::canonical_text(in);
    cache.put(key, svc::fnv1a64(key),
              std::make_shared<const std::vector<core::ThroughputPrediction>>(
                  core::predict_all(in)));
    submit_and_wait(service, line);
    submit_and_wait(observed, line);
  }

  // Each request runs through every layer function under spans, then
  // through Service::submit, so stages and round trip share one moment
  // of the host's load.
  Tracer tracer;
  std::size_t n = 0;
  std::uint64_t sink = 0;  // keeps every timed result observable
  std::vector<double> pool_wait_ns;
  const auto budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
  for (const std::uint64_t t0 = now_ns(); now_ns() - t0 < budget_ns; ++n) {
    const std::uint64_t id = warm + n;
    const std::string line = next_line(id);
    {
      Scope root(tracer, "request", id);
      svc::Request req;
      core::RatInputs inputs;
      std::string key;
      std::uint64_t fp = 0;
      svc::ResultCache::Value cached, computed;
      std::string rendered;
      const std::string token = "k" + std::to_string(id);
      {
        Scope s(tracer, "svc.protocol.parse", id);
        req = svc::parse_request(line);
      }
      {
        Scope s(tracer, "core.parse", id);
        inputs = core::RatInputs::parse(req.worksheet, "<request>");
        inputs.validate();
      }
      {
        Scope s(tracer, "svc.fingerprint.canonical", id);
        key = svc::canonical_text(inputs);
        fp = svc::fnv1a64(key);
      }
      {
        Scope s(tracer, "svc.cache.get", id);
        cached = cache.get(key, fp);
      }
      {
        Scope s(tracer, "core.predict_all", id);
        computed =
            std::make_shared<const std::vector<core::ThroughputPrediction>>(
                core::predict_all(inputs));
      }
      {
        Scope s(tracer, "svc.cache.put", id);
        cache.put(key, fp, computed);
      }
      {
        Scope s(tracer, "svc.protocol.render", id);
        rendered = svc::evaluate_response(token, fp, inputs, *computed);
      }
      {
        Scope s(tracer, "svc.router.route", id);
        sink += svc::route_fingerprint(req);
      }
      {
        Scope s(tracer, "svc.router.encode", id);
        sink += svc::encode_forward(token, req).size();
      }
      {
        Scope s(tracer, "svc.router.splice", id);
        sink += svc::restore_response_id(rendered, req.id).size();
      }
      sink += cached ? 1 : 0;
    }
    std::uint64_t answered = 0;
    const std::uint64_t start = now_ns();
    submit_and_wait(service, line, &answered);
    tracer.add("svc.service.eval", id, start, answered);
    // The pool records a task's wait (pool.task_wait) before running it,
    // so a registry cleared just before the submit holds exactly this
    // request's wait once its response is in.
    obs::set_enabled(true);
    obs::Registry::global().reset();
    submit_and_wait(observed, line);
    const auto timers = obs::Registry::global().timers();
    obs::set_enabled(false);
    const auto wait = timers.find("pool.task_wait");
    if (wait != timers.end())
      pool_wait_ns.push_back(static_cast<double>(wait->second.total_ns));
  }
  const double pool_wait_us = median(pool_wait_ns) / 1e3;

  const std::string spans_path = cli.get_or("spans", "");
  if (!spans_path.empty() && !tracer.write_jsonl(spans_path))
    throw std::runtime_error("cannot write " + spans_path);

  JsonObj self_us;
  for (const auto& [name, values] : tracer.self_ns())
    self_us.num(name, median(values) / 1e3);
  std::cout << JsonObj()
                   .count("requests", n)
                   .raw("self_us", self_us.done())
                   .num("pool_wait_us", pool_wait_us)
                   .count("spans", tracer.spans().size())
                   .count("sink", sink % 1000)
                   .done()
            << std::endl;
  return 0;
}

// ---- explore workload ----

/// One seeded Figure-1 campaign over a ~16k-point grid.
struct Campaign {
  std::size_t base = 0;  ///< 0 pdf1d, 1 pdf2d, 2 md
  std::size_t p0 = 0;    ///< parallelism axis starts at p0 + 1
  std::size_t c0 = 0;    ///< clock axis starts at 80 + 5 * c0 MHz
  int goal_kind = 0;     ///< 0 winner early, 1 winner late, 2 no winner
  double goal = 1.0;     ///< Requirements::min_speedup
};

constexpr std::size_t kParallelism = 64, kClocks = 32, kFormats = 8;

const std::vector<core::RatInputs>& bases() {
  static const std::vector<core::RatInputs> b = {
      core::pdf1d_inputs(), core::pdf2d_inputs(), core::md_inputs()};
  return b;
}

core::DesignAxes campaign_axes(const Campaign& c) {
  core::DesignAxes axes;
  axes.parallelism.clear();
  axes.fclock_hz.clear();
  axes.format_bits.clear();
  for (std::size_t i = 1; i <= kParallelism; ++i)
    axes.parallelism.push_back(c.p0 + i);
  for (std::size_t i = 0; i < kClocks; ++i)
    axes.fclock_hz.push_back(1e6 * (80.0 + 5.0 * static_cast<double>(c.c0 + i)));
  for (std::size_t i = 0; i < kFormats; ++i)
    axes.format_bits.push_back(static_cast<int>(10 + 2 * i));
  return axes;
}

/// Monotone along every axis (Eqs. 5-6): speedup rises with lanes and
/// clock and falls with format width. Each lane costs one multiplier of
/// the format's width and logic that grows with the clock (deeper
/// pipelining), so the widest, fastest grids meet the resource gate.
core::CandidateFactory campaign_factory(std::size_t base) {
  const core::RatInputs& in = bases()[base];
  const double per_lane = in.comp.throughput_ops_per_cycle / 8.0;
  return [&in, per_lane](const core::DesignPoint& p)
             -> std::optional<core::DesignCandidate> {
    core::DesignCandidate c;
    c.inputs = in;
    c.inputs.name = p.label();
    c.inputs.comp.throughput_ops_per_cycle =
        per_lane * static_cast<double>(p.parallelism);
    c.inputs.dataset.bytes_per_element =
        static_cast<double>((p.format_bits + 7) / 8);
    const auto logic = static_cast<std::int64_t>(
        200.0 + 2.0 * (p.fclock_hz / 1e6 - 80.0));
    c.resources = {core::ResourceItem{"lanes", 1, p.format_bits, 0, logic,
                                      static_cast<int>(p.parallelism)}};
    return c;
  };
}

core::Requirements campaign_requirements(const Campaign& c) {
  core::Requirements req;
  req.min_speedup = c.goal;
  return req;
}

/// Predicted speedup of base @p base at one design point.
double point_speedup(std::size_t base, std::size_t lanes, double mhz,
                     int bits) {
  const core::DesignPoint p{lanes, mhz * 1e6, bits};
  return core::predict(campaign_factory(base)(p)->inputs, p.fclock_hz)
      .speedup_sb;
}

/// The seeded campaign list. Bases and goal kinds cycle through all nine
/// pairs, so every list has the same mix of work; the seed sets where
/// each pair's grid starts and how it drifts. A pair's next grid is the
/// same as its last one half of the time and otherwise moves by a few
/// steps, so consecutive grids of a pair overlap, and goals depend only
/// on the pair: the plan cache both inserts and hits.
std::vector<Campaign> build_campaigns(std::uint64_t seed, std::size_t n) {
  constexpr std::size_t kMaxP0 = 32, kMaxC0 = 16, kPairs = 9;
  util::Rng rng(seed * 0x2545f4914f6cdd1dull + 7);
  std::vector<std::size_t> p0(kPairs), c0(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    p0[i] = rng.uniform_index(kMaxP0);
    c0[i] = rng.uniform_index(kMaxC0);
  }
  std::vector<Campaign> out;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t pair = k % kPairs;
    if (rng.uniform() < 0.5) {
      p0[pair] = (p0[pair] + 1 + rng.uniform_index(3)) % kMaxP0;
      c0[pair] = (c0[pair] + rng.uniform_index(2)) % kMaxC0;
    }
    Campaign c;
    c.goal_kind = static_cast<int>(pair % 3);
    c.base = pair / 3;
    c.p0 = p0[pair];
    c.c0 = c0[pair];
    // Slowest and fastest corners over every grid the list can visit.
    const double lo = point_speedup(c.base, 1, 80.0, 24);
    const double hi = point_speedup(c.base, kMaxP0 + kParallelism,
                                    80.0 + 5.0 * (kMaxC0 + kClocks), 10);
    const double at = c.goal_kind == 0 ? 0.1 : 0.6;
    c.goal = c.goal_kind == 2 ? hi * 1.25 : lo + at * (hi - lo);
    out.push_back(c);
  }
  return out;
}

/// CPU time of the calling thread, in nanoseconds.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

struct CampaignRun {
  explore::ExploreResult result;
  double ms = 0.0;      ///< wall time
  double cpu_us = 0.0;  ///< CPU time of the calling thread
};

CampaignRun run_campaign(const Campaign& c, explore::ExploreOptions opt) {
  const std::uint64_t t0 = now_ns(), c0 = thread_cpu_ns();
  CampaignRun run;
  run.result = explore::explore_design_space_pruned(
      campaign_axes(c), campaign_factory(c.base), campaign_requirements(c),
      rcsim::virtex4_lx100(), opt);
  run.cpu_us = static_cast<double>(thread_cpu_ns() - c0) / 1e3;
  run.ms = static_cast<double>(now_ns() - t0) / 1e6;
  return run;
}

std::string render(const explore::ExploreResult& r) {
  std::string out = r.design.outcome.render_trace();
  out += r.winner_index ? "|winner=" + std::to_string(*r.winner_index)
                        : "|no-winner";
  for (const core::ThroughputPrediction& p : r.design.outcome.predictions)
    out.append(reinterpret_cast<const char*>(&p), sizeof p);
  return out;
}

int cmd_explore(const util::Cli& cli) {
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 10.0);
  const bool traced = cli.get_int("trace", 0) != 0;
  const std::filesystem::path dir = cli.get_or("dir", "");
  const std::size_t repeats = cli.get_size_t("setup-repeats", 5, 1, 100);
  constexpr std::size_t kCampaigns = 4000;  // more than any run gets through
  if (dir.empty()) throw std::invalid_argument("explore: --dir is required");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Set-up: open the plan cache and build the campaign list, repeated.
  std::vector<double> setup_s, open_ms;
  std::unique_ptr<explore::PlanCache> cache;
  std::vector<Campaign> campaigns;
  for (std::size_t k = 0; k < repeats; ++k) {
    cache.reset();
    const std::uint64_t t0 = now_ns();
    cache = std::make_unique<explore::PlanCache>(dir / ("plan-" + std::to_string(k)));
    const std::uint64_t t1 = now_ns();
    campaigns = build_campaigns(seed, kCampaigns);
    const std::uint64_t t2 = now_ns();
    open_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
  }

  // Closed loop: one caller runs the campaign list in sequence until the
  // campaigns have taken the run's time. Every oracle_every-th campaign
  // is checked against the unpruned per-point scan right away, outside
  // the timed calls, so no result outlives its check.
  const double loop_ms = (traced ? seconds * 0.6 : seconds) * 1e3;
  const std::size_t oracle_every = 32;
  std::vector<double> campaign_ms;
  double timed_ms = 0.0, cpu_us = 0.0;
  std::size_t attempted = 0, failed = 0, checked = 0, mismatches = 0;
  explore::ExploreOptions opt, oracle_opt;
  opt.plan_cache = cache.get();
  oracle_opt.policy.prune = false;
  for (; attempted < campaigns.size() && timed_ms < loop_ms; ++attempted) {
    try {
      const CampaignRun run = run_campaign(campaigns[attempted], opt);
      campaign_ms.push_back(run.ms);
      cpu_us += run.cpu_us;
      timed_ms += run.ms;
      if (attempted % oracle_every == 0) {
        ++checked;
        if (render(run_campaign(campaigns[attempted], oracle_opt).result) !=
            render(run.result)) {
          ++mismatches;
          std::fprintf(stderr, "explore: campaign %zu differs from the oracle\n",
                       attempted);
        }
      }
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "explore: campaign %zu threw: %s\n", attempted,
                   e.what());
    }
  }

  JsonObj out;
  out.count("attempted", attempted + checked)
      .count("failed", failed + mismatches)
      .count("campaigns", campaign_ms.size())
      .count("oracle_checked", checked)
      .count("oracle_mismatches", mismatches)
      .num("campaigns_s", timed_ms / 1e3)
      .num("campaign_cpu_us",
           cpu_us / static_cast<double>(std::max<std::size_t>(1, campaign_ms.size())))
      .num("campaign_ms", median(campaign_ms))
      .num("campaign_p95_ms", percentile(campaign_ms, 95.0))
      .num("setup_s", median(setup_s));

  if (traced) {
    // Traced pass over the head of the same list on a fresh plan cache:
    // obs on in-process, benchmark spans around every layer call.
    const std::size_t traced_n =
        std::min<std::size_t>({24, campaigns.size(), campaign_ms.size()});
    obs::set_enabled(true);
    Tracer tracer;
    explore::PlanCache traced_cache(dir / "traced");
    explore::PlanCache probe_cache(dir / "probe");
    explore::ExploreOptions topt;
    topt.plan_cache = &traced_cache;
    explore::ExploreOptions full_opt, elide_opt;
    elide_opt.policy.full_trace = false;
    const rcsim::Device device = rcsim::virtex4_lx100();
    explore::ExploreStats sum;
    std::vector<double> traced_ms, untraced_ms, assemble_ms, ns_per_point;
    for (std::size_t k = 0; k < traced_n; ++k) {
      const Campaign& c = campaigns[k];
      const core::DesignAxes axes = campaign_axes(c);
      const core::CandidateFactory factory = campaign_factory(c.base);
      const core::Requirements req = campaign_requirements(c);
      untraced_ms.push_back(campaign_ms[k]);
      {
        Scope campaign(tracer, "explore.campaign", k);
        const std::uint64_t t0 = now_ns();
        explore::ExploreResult r;
        {
          Scope s(tracer, "explore.explorer", k);
          r = explore::explore_design_space_pruned(axes, factory, req, device,
                                                   topt);
        }
        traced_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        const explore::ExploreStats& st = r.stats;
        sum.points_total += st.points_total;
        sum.points_evaluated += st.points_evaluated;
        sum.points_bounded += st.points_bounded;
        sum.corner_evaluations += st.corner_evaluations;
        sum.cache_hits += st.cache_hits;
        sum.cache_misses += st.cache_misses;
      }
      Scope probe(tracer, "explore.probe", k);
      std::vector<core::DesignCandidate> cands;
      {
        Scope s(tracer, "core.designspace.enumerate", k);
        cands = core::enumerate_design_space(axes, factory);
      }
      core::WindowPredictions preds;
      {
        const std::uint64_t t0 = now_ns();
        Scope s(tracer, "core.batch.fill", k);
        preds.fill(cands, 0, cands.size());
        ns_per_point.push_back(static_cast<double>(now_ns() - t0) /
                               static_cast<double>(cands.size()));
      }
      double full = 0.0;
      {
        const std::uint64_t t0 = now_ns();
        Scope s(tracer, "explore.explorer.full_trace", k);
        explore::explore_design_space_pruned(axes, factory, req, device,
                                             full_opt);
        full = static_cast<double>(now_ns() - t0) / 1e6;
      }
      {
        const std::uint64_t t0 = now_ns();
        Scope s(tracer, "explore.explorer.elided", k);
        explore::explore_design_space_pruned(axes, factory, req, device,
                                             elide_opt);
        assemble_ms.push_back(full - static_cast<double>(now_ns() - t0) / 1e6);
      }
      const std::size_t stride = cands.size() / 64 + 1;
      for (std::size_t i = 0; i < cands.size(); i += stride) {
        core::CandidateEvaluation ev;
        Scope s(tracer, "core.evaluation.gate", k);
        core::apply_throughput_gate(ev, i, cands[i].inputs.name, req,
                                    preds.batch.prediction(i));
      }
      for (std::size_t i = cands.size() / 16; i < cands.size();
           i += cands.size() / 8) {
        core::CandidateEvaluation ev;
        {
          Scope s(tracer, "core.evaluation.candidate", k);
          ev = core::evaluate_candidate(i, cands[i], req, device,
                                        preds.batch.prediction(i));
        }
        const std::string key = explore::PlanCache::key(cands[i], req, device);
        {
          Scope s(tracer, "explore.plan_cache.insert", k);
          probe_cache.insert(key, ev);
        }
        Scope s(tracer, "explore.plan_cache.lookup", k);
        probe_cache.lookup(key, i, cands[i].inputs.name);
      }
    }
    obs::set_enabled(false);
    const std::string spans_path = cli.get_or("spans", "");
    if (!spans_path.empty() && !tracer.write_jsonl(spans_path))
      throw std::runtime_error("cannot write " + spans_path);
    const auto self = tracer.self_ns();
    auto self_med = [&](const char* name, double scale) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : median(it->second) / scale;
    };
    const double hits = static_cast<double>(sum.cache_hits);
    const double lookups = hits + static_cast<double>(sum.cache_misses);
    out.raw("layers",
            JsonObj()
                .count("campaigns", traced_n)
                .num("campaign_ms_traced", median(traced_ms))
                .num("campaign_ms_untraced", median(untraced_ms))
                .num("enumerate_ms", self_med("core.designspace.enumerate", 1e6))
                .num("ns_per_point", median(ns_per_point))
                .num("candidate_us", self_med("core.evaluation.candidate", 1e3))
                .num("gate_us", self_med("core.evaluation.gate", 1e3))
                .num("assemble_ms", median(assemble_ms))
                .num("insert_us", self_med("explore.plan_cache.insert", 1e3))
                .num("open_ms", median(open_ms))
                .count("points_total", sum.points_total)
                .count("points_evaluated", sum.points_evaluated)
                .count("points_bounded", sum.points_bounded)
                .count("corner_evaluations", sum.corner_evaluations)
                .num("plan_cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0)
                .count("spans", tracer.spans().size())
                .done());
  }
  out.num("rss_mb", vm_hwm_mb());
  cache.reset();
  std::filesystem::remove_all(dir);
  std::cout << out.done() << std::endl;
  return 0;
}

int cmd_host() {
  std::cout << JsonObj()
                   .str("simd_backend", core::simd_backend())
                   .count("simd_width", core::simd_width())
                   .str("compiler", __VERSION__)
                   .str("build_type", RATBENCH_BUILD_TYPE)
                   .done()
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s host|session|layers|explore [--flags]\n", argv[0]);
    return 2;
  }
  const std::string command = argv[1];
  const util::Cli cli(argc - 1, argv + 1);
  try {
    if (command == "host") return cmd_host();
    if (command == "session") return cmd_session(cli);
    if (command == "layers") return cmd_layers(cli);
    if (command == "explore") return cmd_explore(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ratbench_driver %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "ratbench_driver: unknown command %s\n", command.c_str());
  return 2;
}
