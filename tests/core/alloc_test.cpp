// Allocation pins for the per-point hot path: a passing
// RatInputs::validate(), predict() and a warm WindowPredictions fill
// perform zero heap allocations. validate() runs once per predict() call,
// so a message string built on every check would dominate the Eqs. 1-11
// flops. Parsing a worksheet, which every service request does, allocates
// only the result's name and clock list. An exploration allocates a fixed
// count per candidate: the enumeration and a full trace's outcome reserve
// their vectors once, and a throughput rejection, the fate of most
// candidates, makes 5 allocations.
//
// This binary replaces the global operator new with a counting one, so it
// stays its own test target, and the sanitizer builds (which bring their
// own allocator) skip it. Only the calls between two reads of the counter
// are measured; gtest's own allocations fall outside them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/designspace.hpp"
#include "core/evaluation.hpp"
#include "core/parameters.hpp"
#include "core/throughput.hpp"
#include "core/units.hpp"
#include "explore/explorer.hpp"
#include "rcsim/device.hpp"

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

namespace rat::core {
namespace {

/// Heap allocations made while @p fn runs.
template <typename Fn>
std::uint64_t allocations_in(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

std::vector<RatInputs> case_studies() {
  return {pdf1d_inputs(), pdf2d_inputs(), md_inputs()};
}

TEST(AllocFree, ValidateOnCaseStudies) {
  for (const RatInputs& in : case_studies())
    EXPECT_EQ(allocations_in([&] { in.validate(); }), 0u) << in.name;
}

TEST(AllocFree, Predict) {
  for (const RatInputs& in : case_studies()) {
    ThroughputPrediction p;
    EXPECT_EQ(allocations_in([&] { p = predict(in, in.comp.fclock_hz[0]); }),
              0u)
        << in.name;
    EXPECT_GT(p.speedup_sb, 0.0);
  }
}

TEST(AllocFree, WarmWindowFill) {
  constexpr std::size_t kPoints = 96;
  std::vector<DesignCandidate> candidates;
  for (std::size_t i = 0; i < kPoints; ++i) {
    DesignCandidate c;
    c.inputs = case_studies()[i % 3];
    c.decision_clock_hz =
        c.inputs.comp.fclock_hz[i % c.inputs.comp.fclock_hz.size()];
    candidates.push_back(std::move(c));
  }
  WindowPredictions window;
  window.fill(candidates, 0, kPoints);  // warm: sizes both vectors once
  EXPECT_EQ(allocations_in([&] { window.fill(candidates, 0, kPoints); }), 0u);
  ASSERT_EQ(window.predictions.size(), kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) EXPECT_FALSE(window.errors[i]);
}

TEST(AllocFree, ParseCaseStudyWorksheets) {
  // Each fixture names its design in more than 15 characters (one
  // allocation past the small-string buffer) and lists three clocks (the
  // vector grows to 1, 2 and 4 slots): 4 allocations, none for the lines,
  // keys or diagnostics.
  for (const char* stem : {"md", "pdf1d", "pdf2d"}) {
    const std::filesystem::path path =
        std::filesystem::path(RAT_SOURCE_DIR) / "tests" / "fixtures" /
        "worksheets" / (std::string(stem) + ".rat");
    std::ifstream f(path, std::ios::binary);
    ASSERT_TRUE(f) << stem;
    const std::string text{std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>()};
    RatInputs in;
    EXPECT_LE(allocations_in([&] { in = RatInputs::parse(text); }), 4u)
        << stem;
    EXPECT_EQ(in.comp.fclock_hz.size(), 3u) << stem;
  }
}

/// 16 x 64 x 4 = 4,096 points, labelled like ratbench's explore grid.
DesignAxes grid_4096() {
  DesignAxes axes;
  axes.parallelism.clear();
  for (std::size_t p = 1; p <= 16; ++p) axes.parallelism.push_back(p);
  axes.fclock_hz.clear();
  for (int k = 0; k < 64; ++k) axes.fclock_hz.push_back(mhz(80 + 5 * k));
  axes.format_bits = {12, 14, 16, 18};
  return axes;
}

/// A monotone pdf1d factory that names each candidate by its label.
CandidateFactory labelled_factory() {
  return [](const DesignPoint& p) -> std::optional<DesignCandidate> {
    DesignCandidate c;
    c.inputs = pdf1d_inputs();
    c.inputs.name = p.label();
    c.inputs.comp.throughput_ops_per_cycle =
        0.5 * static_cast<double>(p.parallelism);
    c.inputs.dataset.bytes_per_element =
        static_cast<double>((p.format_bits + 7) / 8);
    c.resources = {ResourceItem{"units", 1, p.format_bits, 0, 400,
                                static_cast<int>(p.parallelism)}};
    return c;
  };
}

/// Allocations the factory itself makes over every point of @p axes, in
/// enumeration order.
std::uint64_t factory_allocations(const DesignAxes& axes,
                                  const CandidateFactory& factory) {
  return allocations_in([&] {
    for (std::size_t p : axes.parallelism)
      for (double f : axes.fclock_hz)
        for (int bits : axes.format_bits) (void)factory({p, f, bits});
  });
}

TEST(AllocCount, ThroughputRejection) {
  // One allocation each: the trace's two entries, the candidate's name
  // copied into both, the gate's detail and the rejection's detail.
  const std::string name = DesignPoint{1, mhz(100), 18}.label();
  ASSERT_EQ(name, "1x @ 100 MHz / 18-bit");
  Requirements req;
  req.min_speedup = 1e6;
  const ThroughputPrediction pred = predict(pdf1d_inputs(), mhz(100));
  CandidateEvaluation ev;
  bool passed = true;
  EXPECT_EQ(allocations_in([&] {
              passed = apply_throughput_gate(ev, 0, name, req, pred);
            }),
            5u);
  EXPECT_FALSE(passed);
  ASSERT_EQ(ev.trace.size(), 2u);
  EXPECT_EQ(ev.trace[1].step, Step::kRejected);
}

TEST(AllocCount, EnumerationReservesOnce) {
  // The candidate vector is reserved once from the grid size; every other
  // allocation is the factory's.
  const DesignAxes axes = grid_4096();
  const CandidateFactory factory = labelled_factory();
  const std::uint64_t own = factory_allocations(axes, factory);
  std::vector<DesignCandidate> candidates;
  EXPECT_EQ(allocations_in(
                [&] { candidates = enumerate_design_space(axes, factory); }),
            own + 1);
  EXPECT_EQ(candidates.size(), 4096u);
}

TEST(AllocCount, FullTraceExplorationWithoutWinner) {
  // Every candidate is a throughput rejection (5 allocations). The rest
  // is per run, 272 on this grid: the outcome's trace and prediction
  // vectors, each reserved once from the grid size, the candidate window
  // and the Pareto front's entries (a name each). A full trace streams
  // the grid, so it makes none of the enumeration's reservations.
  constexpr std::uint64_t kPerCandidate = 5;
  constexpr std::uint64_t kPerRun = 272;
  const DesignAxes axes = grid_4096();
  const CandidateFactory factory = labelled_factory();
  const std::uint64_t own = factory_allocations(axes, factory);
  Requirements req;
  req.min_speedup = 1e9;
  const rcsim::Device device = rcsim::virtex4_lx100();
  explore::ExploreResult result;
  const std::uint64_t n = allocations_in([&] {
    result = explore::explore_design_space_pruned(axes, factory, req, device);
  });
  ASSERT_FALSE(result.winner_index);
  ASSERT_EQ(result.stats.points_bounded, 4096u);
  EXPECT_LE(n, own + kPerCandidate * 4096 + kPerRun)
      << "factory " << own << ", exploration " << n - own;
}

TEST(AllocFree, RejectionMessagesKeepTheirBytes) {
  struct Case {
    std::function<void(RatInputs&)> mutate;
    const char* what;
  };
  const std::vector<Case> cases = {
      {[](RatInputs& in) { in.name.clear(); }, "RatInputs: name is empty"},
      {[](RatInputs& in) { in.dataset.elements_in = 0; },
       "RatInputs: elements_in must be positive"},
      {[](RatInputs& in) { in.dataset.bytes_per_element = 0.0; },
       "RatInputs: bytes_per_element must be > 0"},
      {[](RatInputs& in) { in.comm.ideal_bw_bytes_per_sec = -1.0; },
       "RatInputs: ideal bandwidth must be > 0"},
      {[](RatInputs& in) { in.comm.alpha_write = 1.5; },
       "RatInputs: alpha_write outside (0,1]"},
      {[](RatInputs& in) { in.comm.alpha_read = 0.0; },
       "RatInputs: alpha_read outside (0,1]"},
      {[](RatInputs& in) { in.comp.ops_per_element = 0.0; },
       "RatInputs: ops_per_element must be > 0"},
      {[](RatInputs& in) { in.comp.throughput_ops_per_cycle = 0.0; },
       "RatInputs: throughput_proc must be > 0"},
      {[](RatInputs& in) { in.comp.fclock_hz.clear(); },
       "RatInputs: no candidate clock frequencies"},
      {[](RatInputs& in) { in.comp.fclock_hz.back() = 0.0; },
       "RatInputs: non-positive clock frequency"},
      {[](RatInputs& in) { in.software.tsoft_sec = 0.0; },
       "RatInputs: tsoft must be > 0"},
      {[](RatInputs& in) { in.software.n_iterations = 0; },
       "RatInputs: Niter must be positive"},
  };
  for (const Case& c : cases) {
    RatInputs in = pdf1d_inputs();
    c.mutate(in);
    try {
      in.validate();
      ADD_FAILURE() << "accepted a worksheet that should fail: " << c.what;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), c.what);
    }
  }
}

}  // namespace
}  // namespace rat::core
