// Micro-benchmark for the Eqs. 1-11 hot path: per-point predict() (worksheet
// validation plus the kernel per call) vs the pre-validated
// predict_unchecked() vs the SoA batch (validate once, fill columns, one
// column loop). A global allocation counter pins the allocation claims:
// a passing predict() and a steady-state batch evaluation perform zero
// heap allocations per point.
//
// --json=PATH writes the rat.bench.v1 trajectory document (points/sec per
// variant, allocs/point); scripts/check.sh validates it.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench_common.hpp"
#include "core/batch.hpp"
#include "core/montecarlo.hpp"
#include "core/parameters.hpp"
#include "core/throughput.hpp"
#include "core/units.hpp"

// ---- allocation counter ----------------------------------------------------
// Counts every operator new in the process; benchmarks snapshot it around
// their hot loop. Counting is a single relaxed increment, cheap enough to
// leave on for all variants so comparisons stay fair.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC pairs the replaced operator new (malloc) with the replaced operator
// delete (free) just fine at runtime, but its static analysis flags the
// cross-function malloc/free pairing; the replacement set below is matched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace rat;

// ---- workload: a realistic spread of design points -------------------------
// pdf1d worksheet swept across parallelism-scaled throughput_proc, clock
// and transfer efficiency — the same kind of variation explore/MC/sweep
// feed the kernel, precomputed so the timed loops measure evaluation, not
// point synthesis.

constexpr std::size_t kPoints = 1 << 16;  // 65,536

struct PointSet {
  std::vector<double> throughput_proc, fclock, alpha_write;
};

const PointSet& points() {
  static const PointSet ps = [] {
    PointSet p;
    p.throughput_proc.reserve(kPoints);
    p.fclock.reserve(kPoints);
    p.alpha_write.reserve(kPoints);
    for (std::size_t i = 0; i < kPoints; ++i) {
      p.throughput_proc.push_back(2.5 * static_cast<double>(1 + i % 32));
      p.fclock.push_back(core::mhz(75 + 5 * static_cast<double>(i % 20)));
      p.alpha_write.push_back(0.2 + 0.7 * static_cast<double>(i % 64) / 64.0);
    }
    return p;
  }();
  return ps;
}

/// Per-point baseline: one checked predict() per point.
double eval_scalar(core::RatInputs& scratch) {
  const PointSet& ps = points();
  double acc = 0.0;
  for (std::size_t i = 0; i < kPoints; ++i) {
    scratch.comp.throughput_ops_per_cycle = ps.throughput_proc[i];
    scratch.comm.alpha_write = ps.alpha_write[i];
    acc += core::predict(scratch, ps.fclock[i]).speedup_sb;
  }
  return acc;
}

double eval_unchecked(core::RatInputs& scratch) {
  const PointSet& ps = points();
  double acc = 0.0;
  for (std::size_t i = 0; i < kPoints; ++i) {
    scratch.comp.throughput_ops_per_cycle = ps.throughput_proc[i];
    scratch.comm.alpha_write = ps.alpha_write[i];
    acc += core::predict_unchecked(scratch, ps.fclock[i]).speedup_sb;
  }
  return acc;
}

/// Batch path as its consumers run it: validate once, then
/// fill/evaluate/consume the reused SoA batch in 1024-point chunks — the
/// Monte-Carlo chunk size, which keeps all 23 columns resident in L2.
double eval_batch(core::RatInputs& scratch, core::ThroughputBatch& batch) {
  constexpr std::size_t kChunk = 1024;
  const PointSet& ps = points();
  scratch.validate();
  double acc = 0.0;
  for (std::size_t lo = 0; lo < kPoints; lo += kChunk) {
    const std::size_t count = std::min(kChunk, kPoints - lo);
    batch.clear();
    batch.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t i = lo + k;
      scratch.comp.throughput_ops_per_cycle = ps.throughput_proc[i];
      scratch.comm.alpha_write = ps.alpha_write[i];
      batch.push_back_unchecked(scratch, ps.fclock[i]);
    }
    core::predict_batch(batch);
    for (double s : batch.out.speedup_sb) acc += s;
  }
  return acc;
}

void finish(benchmark::State& state, std::uint64_t allocs) {
  state.SetItemsProcessed(static_cast<std::int64_t>(kPoints) *
                          state.iterations());
  state.counters["allocs_per_point"] =
      static_cast<double>(allocs) /
      static_cast<double>(kPoints * std::max<std::int64_t>(
                                        1, state.iterations()));
}

void BM_PredictScalar(benchmark::State& state) {
  core::RatInputs scratch = core::pdf1d_inputs();
  const std::uint64_t before = g_allocations.load();
  for (auto _ : state) benchmark::DoNotOptimize(eval_scalar(scratch));
  finish(state, g_allocations.load() - before);
}
BENCHMARK(BM_PredictScalar);

void BM_PredictUnchecked(benchmark::State& state) {
  core::RatInputs scratch = core::pdf1d_inputs();
  const std::uint64_t before = g_allocations.load();
  for (auto _ : state) benchmark::DoNotOptimize(eval_unchecked(scratch));
  finish(state, g_allocations.load() - before);
}
BENCHMARK(BM_PredictUnchecked);

void BM_Batch(benchmark::State& state) {
  core::RatInputs scratch = core::pdf1d_inputs();
  core::ThroughputBatch batch;
  // Warm the arena so the timed region shows the steady state the
  // explorer chunks run in (first fill allocates, every later one reuses).
  benchmark::DoNotOptimize(eval_batch(scratch, batch));
  const std::uint64_t before = g_allocations.load();
  for (auto _ : state) benchmark::DoNotOptimize(eval_batch(scratch, batch));
  finish(state, g_allocations.load() - before);
}
BENCHMARK(BM_Batch);

// ---- trajectory report -----------------------------------------------------

template <typename Fn>
double points_per_sec(Fn&& fn) {
  // Run for >= 0.2s of wall clock and report the best pass, so the number
  // is stable without dragging in the google-benchmark machinery.
  double best = 0.0;
  double elapsed_total = 0.0;
  while (elapsed_total < 0.2) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(fn());
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    elapsed_total += s;
    best = std::max(best, static_cast<double>(kPoints) / s);
  }
  return best;
}

/// Heap allocations per point across 8 passes of @p fn.
template <typename Fn>
double allocs_per_point(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  for (int r = 0; r < 8; ++r) benchmark::DoNotOptimize(fn());
  return static_cast<double>(g_allocations.load() - before) /
         static_cast<double>(8 * kPoints);
}

void emit_json(const std::string& path) {
  bench::BenchJson json("bench_batch_eval", path);
  if (!json.enabled()) return;

  core::RatInputs scratch = core::pdf1d_inputs();
  core::ThroughputBatch batch;
  const double scalar = points_per_sec([&] { return eval_scalar(scratch); });
  const double unchecked =
      points_per_sec([&] { return eval_unchecked(scratch); });
  const double batched =
      points_per_sec([&] { return eval_batch(scratch, batch); });

  json.add("kernel.scalar_points_per_sec", scalar);
  json.add("kernel.unchecked_points_per_sec", unchecked);
  json.add("kernel.batch_points_per_sec", batched);
  json.add("kernel.batch_vs_scalar_speedup", batched / scalar);
  // The batch was warmed by the timing passes above: steady state.
  json.add("kernel.scalar_allocs_per_point",
           allocs_per_point([&] { return eval_scalar(scratch); }));
  json.add("kernel.batch_allocs_per_point",
           allocs_per_point([&] { return eval_batch(scratch, batch); }));
  json.write();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = rat::bench::BenchJson::extract_json_path(
      argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_json(json_path);
  return 0;
}
