// Serial-vs-N-thread throughput of the parallel evaluation engine on the
// two heaviest explorer loops: a 10,000-point design-space sweep (every
// candidate runs the throughput + precision tests) and a 100,000-sample
// Monte-Carlo band, plus the one-core Eqs. 1-11 kernel rate. The report
// shows the speedup-vs-threads curve; --json=PATH also writes it as a
// rat.bench.v1 record. Results are thread-count-invariant by
// construction (see docs/PARALLELISM.md), so every configuration computes
// the identical outcome — only the wall clock should move.
//
// Usage: bench_parallel_scaling [--json=PATH]
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/designspace.hpp"
#include "core/montecarlo.hpp"
#include "core/throughput.hpp"
#include "core/units.hpp"
#include "fixedpoint/fixed.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace rat;

// ---- 10k-point design space ----------------------------------------------
// 25 parallelism values x 20 clocks x 20 widths = 10,000 points. The goal
// is reachable at the throughput gate but the precision tolerance is not,
// so every candidate runs its full format sweep before being rejected:
// both the serial and parallel runs evaluate the entire space.

core::DesignAxes big_axes() {
  core::DesignAxes axes;
  axes.parallelism.clear();
  for (std::size_t p = 1; p <= 25; ++p) axes.parallelism.push_back(p);
  axes.fclock_hz.clear();
  for (int i = 0; i < 20; ++i) axes.fclock_hz.push_back(core::mhz(75 + 5 * i));
  axes.format_bits.clear();
  for (int b = 12; b < 32; ++b) axes.format_bits.push_back(b);
  return axes;
}

/// Shared read-only precision dataset (quantization kernel is thread-safe).
const std::vector<double>& reference_data() {
  static const std::vector<double> data = [] {
    util::Rng rng(404);
    std::vector<double> d(256);
    for (auto& x : d) x = rng.uniform(0.0, 0.95);
    return d;
  }();
  return data;
}

core::CandidateFactory heavy_factory() {
  return [](const core::DesignPoint& p)
             -> std::optional<core::DesignCandidate> {
    core::DesignCandidate c;
    c.inputs = core::pdf1d_inputs();
    c.inputs.name = p.label();
    c.inputs.comp.throughput_ops_per_cycle =
        2.5 * static_cast<double>(p.parallelism);
    c.precision_reference = reference_data();
    c.precision_kernel = [](fx::Format fmt) {
      const auto& ref = reference_data();
      std::vector<double> out;
      out.reserve(ref.size());
      for (double x : ref)
        out.push_back(fx::Fixed::from_double(x, fmt).to_double());
      return out;
    };
    c.resources = {core::ResourceItem{"units", 1, p.format_bits, 0, 400,
                                      static_cast<int>(p.parallelism)}};
    return c;
  };
}

core::Requirements exhaustive_requirements() {
  core::Requirements req;
  req.min_speedup = 0.001;  // throughput gate always passes...
  // ...and the precision tolerance never does: every point runs the full
  // 12-20 bit sweep, so the whole 10k-point space is evaluated. The sweep
  // is serial per candidate, so the measured scaling is the
  // candidate-level parallelism.
  req.precision = core::PrecisionRequirements{1e-9, 12, 20, 0};
  return req;
}

core::DesignSpaceResult run_design_space(std::size_t threads) {
  return core::explore_design_space(big_axes(), heavy_factory(),
                                    exhaustive_requirements(),
                                    rcsim::virtex4_lx100(), threads);
}

// ---- 100k-sample Monte-Carlo ---------------------------------------------

core::MonteCarloResult run_mc(std::size_t threads) {
  const core::RatInputs in = core::md_inputs();
  const auto model = core::UncertaintyModel::typical(in);
  return core::run_monte_carlo(in, model, 100'000, 10.0, 1234, threads);
}

// ---- raw-kernel points/sec -------------------------------------------------
// Single-core Eqs. 1-11 evaluation rate on a varied 131k-point workload:
// per-point predict() (validation plus kernel per call) and the
// pre-validated predict_unchecked(). Both compute bit-identical outputs;
// the rates are recorded, not gated, so BENCH_RAT.json shows what
// validation costs on this build.

constexpr std::size_t kKernelPoints = 1 << 17;  // 131,072

double kernel_scalar_pass(core::RatInputs& scratch) {
  double acc = 0.0;
  for (std::size_t i = 0; i < kKernelPoints; ++i) {
    scratch.comp.throughput_ops_per_cycle =
        2.5 * static_cast<double>(1 + i % 25);
    acc += core::predict(scratch, core::mhz(75 + 5 * static_cast<double>(
                                                         i % 20)))
               .speedup_sb;
  }
  return acc;
}

double kernel_unchecked_pass(core::RatInputs& scratch) {
  double acc = 0.0;
  for (std::size_t i = 0; i < kKernelPoints; ++i) {
    scratch.comp.throughput_ops_per_cycle =
        2.5 * static_cast<double>(1 + i % 25);
    acc += core::predict_unchecked(
               scratch, core::mhz(75 + 5 * static_cast<double>(i % 20)))
               .speedup_sb;
  }
  return acc;
}

// ---- speedup report --------------------------------------------------------

template <typename Fn>
double wall_seconds(const Fn& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Each timed kernel pass writes its result here, so the pass stays
// observable.
volatile double sink = 0.0;

/// Best-of-passes points/sec for one kernel variant (>= 0.2s wall total).
template <typename Fn>
double kernel_points_per_sec(const Fn& fn) {
  double best = 0.0;
  double total = 0.0;
  while (total < 0.2) {
    const double s = wall_seconds([&] { sink = fn(); });
    total += s;
    best = std::max(best, static_cast<double>(kKernelPoints) / s);
  }
  return best;
}

void print_report(const std::optional<std::string>& json_path) {
  bench::BenchJson json("bench_parallel_scaling", json_path);

  std::printf("\nRaw Eqs. 1-11 kernel, one core, %zu varied points "
              "(bit-identical outputs):\n\n",
              kKernelPoints);
  core::RatInputs scratch = core::pdf1d_inputs();
  const double k_scalar =
      kernel_points_per_sec([&] { return kernel_scalar_pass(scratch); });
  const double k_unchecked =
      kernel_points_per_sec([&] { return kernel_unchecked_pass(scratch); });
  std::printf("%-34s %14.3e pts/s %8.2fx\n", "per-point predict()", k_scalar,
              1.0);
  std::printf("%-34s %14.3e pts/s %8.2fx\n", "per-point predict_unchecked()",
              k_unchecked, k_unchecked / k_scalar);
  json.add("kernel.scalar_points_per_sec", k_scalar);
  json.add("kernel.unchecked_points_per_sec", k_unchecked);
  std::printf("\nParallel scaling: serial vs N threads (identical results "
              "at every thread count)\n\n");
  std::printf("%-28s %8s %10s %9s\n", "workload", "threads", "wall [s]",
              "speedup");
  const double ds_serial = wall_seconds([] { run_design_space(1); });
  std::printf("%-28s %8d %10.3f %8.2fx\n", "design space, 10k points", 1,
              ds_serial, 1.0);
  json.add("designspace.points_per_sec_1t", 10'000.0 / ds_serial);
  for (std::size_t t : {2, 4, 8}) {
    const double s = wall_seconds([t] { run_design_space(t); });
    std::printf("%-28s %8zu %10.3f %8.2fx\n", "design space, 10k points", t,
                s, ds_serial / s);
    json.add("designspace.speedup_" + std::to_string(t) + "t",
             ds_serial / s);
  }
  const double mc_serial = wall_seconds([] { run_mc(1); });
  std::printf("%-28s %8d %10.3f %8.2fx\n", "Monte-Carlo, 100k samples", 1,
              mc_serial, 1.0);
  json.add("montecarlo.samples_per_sec_1t", 100'000.0 / mc_serial);
  for (std::size_t t : {2, 4, 8}) {
    const double s = wall_seconds([t] { run_mc(t); });
    std::printf("%-28s %8zu %10.3f %8.2fx\n", "Monte-Carlo, 100k samples", t,
                s, mc_serial / s);
    json.add("montecarlo.speedup_" + std::to_string(t) + "t",
             mc_serial / s);
  }
  json.write();
}

}  // namespace

int main(int argc, char** argv) {
  const rat::util::Cli cli(argc, argv);
  cli.require_known({"json"});
  print_report(cli.get("json"));
  return 0;
}
