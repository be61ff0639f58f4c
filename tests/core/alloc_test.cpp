// Allocation pins for the per-point hot path: a passing
// RatInputs::validate(), predict() and a warm WindowPredictions fill
// perform zero heap allocations. validate() runs once per predict() call,
// so a message string built on every check would dominate the Eqs. 1-11
// flops.
//
// This binary replaces the global operator new with a counting one, so it
// stays its own test target, and the sanitizer builds (which bring their
// own allocator) skip it. Only the calls between two reads of the counter
// are measured; gtest's own allocations fall outside them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/evaluation.hpp"
#include "core/parameters.hpp"
#include "core/throughput.hpp"
#include "core/units.hpp"

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
