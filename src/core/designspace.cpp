#include "core/designspace.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <stdexcept>

#include "core/units.hpp"
#include "util/format.hpp"
#include "util/require.hpp"

namespace rat::core {

std::string DesignPoint::label() const {
  // "<p>x @ <MHz> MHz / <bits>-bit" in one buffer. 32 characters hold
  // every label up to 9,999,999 lanes, 99,999 MHz and 99 bits.
  char digits[20];
  std::string out;
  out.reserve(32);
  out.append(digits, std::to_chars(std::begin(digits), std::end(digits),
                                   parallelism).ptr);
  out += "x @ ";
  util::append_fixed(out, to_mhz(fclock_hz), 0);
  out += " MHz / ";
  out.append(digits, std::to_chars(std::begin(digits), std::end(digits),
                                   format_bits).ptr);
  out += "-bit";
  return out;
}

namespace {

/// Ascending, duplicate-free axis check. Works for any ordered value type.
template <typename T>
void check_sorted_axis(const std::vector<T>& axis, const char* name) {
  for (std::size_t k = 1; k < axis.size(); ++k) {
    if (axis[k] == axis[k - 1])
      throw std::invalid_argument(std::string("DesignAxes: duplicate ") +
                                  name + " value");
    if (axis[k] < axis[k - 1])
      throw std::invalid_argument(std::string("DesignAxes: ") + name +
                                  " axis not sorted ascending");
  }
}

}  // namespace

void DesignAxes::validate() const {
  if (parallelism.empty() || fclock_hz.empty() || format_bits.empty())
    throw std::invalid_argument("DesignAxes: empty axis");
  for (std::size_t p : parallelism)
    if (p == 0) throw std::invalid_argument("DesignAxes: zero parallelism");
  for (double f : fclock_hz)
    util::require_positive(f, "DesignAxes: non-positive clock");
  for (int b : format_bits)
    if (b < 2 || b > 63)
      throw std::invalid_argument("DesignAxes: format bits outside [2,63]");
  check_sorted_axis(parallelism, "parallelism");
  check_sorted_axis(fclock_hz, "fclock_hz");
  check_sorted_axis(format_bits, "format_bits");
}

std::size_t DesignAxes::size() const {
  std::size_t n = parallelism.size();
  if (__builtin_mul_overflow(n, fclock_hz.size(), &n) ||
      __builtin_mul_overflow(n, format_bits.size(), &n))
    throw std::overflow_error(
        "DesignAxes::size: " + std::to_string(parallelism.size()) + " x " +
        std::to_string(fclock_hz.size()) + " x " +
        std::to_string(format_bits.size()) +
        " grid points overflow std::size_t");
  return n;
}

std::vector<DesignCandidate> enumerate_design_space(
    const DesignAxes& axes, const CandidateFactory& factory,
    std::vector<std::string>* skipped_labels) {
  // One reservation instead of a doubling per campaign: the candidate
  // vector of a 16k-point grid outgrows malloc's mmap threshold, so every
  // doubling past it mapped fresh pages and faulted them in.
  const std::size_t expected = std::min(axes.size(), kMaxReservedCandidates);
  std::vector<DesignCandidate> out;
  out.reserve(expected);
  walk_design_space(axes, factory, skipped_labels, [&](DesignCandidate&& cand) {
    out.push_back(std::move(cand));
  });
  return out;
}

DesignSpaceResult explore_design_space(const DesignAxes& axes,
                                       const CandidateFactory& factory,
                                       const Requirements& requirements,
                                       const rcsim::Device& device) {
  DesignSpaceResult result;
  result.points_total = axes.size();
  const auto candidates =
      enumerate_design_space(axes, factory, &result.skipped_labels);
  result.points_skipped = result.skipped_labels.size();
  if (candidates.empty())
    throw std::invalid_argument(
        "explore_design_space: factory skipped every point");
  result.outcome = run_methodology(candidates, requirements, device);
  return result;
}

}  // namespace rat::core
