#include "core/designspace.hpp"

#include <stdexcept>

#include "core/units.hpp"
#include "util/format.hpp"

namespace rat::core {

std::string DesignPoint::label() const {
  return std::to_string(parallelism) + "x @ " +
         util::fixed(to_mhz(fclock_hz), 0) + " MHz / " +
         std::to_string(format_bits) + "-bit";
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
    if (f <= 0.0)
      throw std::invalid_argument("DesignAxes: non-positive clock");
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
    std::vector<std::string>* skipped_labels,
    std::vector<DesignPoint>* points) {
  axes.validate();
  if (!factory)
    throw std::invalid_argument("enumerate_design_space: null factory");
  std::vector<DesignCandidate> out;
  for (std::size_t p : axes.parallelism) {
    for (double f : axes.fclock_hz) {
      for (int bits : axes.format_bits) {
        DesignPoint point{p, f, bits};
        auto cand = factory(point);
        if (!cand) {
          if (skipped_labels) skipped_labels->push_back(point.label());
          continue;
        }
        if (cand->inputs.name.empty()) cand->inputs.name = point.label();
        cand->decision_clock_hz = f;
        if (points) points->push_back(point);
        out.push_back(std::move(*cand));
      }
    }
  }
  return out;
}

DesignSpaceResult explore_design_space(const DesignAxes& axes,
                                       const CandidateFactory& factory,
                                       const Requirements& requirements,
                                       const rcsim::Device& device,
                                       std::size_t n_threads) {
  DesignSpaceResult result;
  result.points_total = axes.size();
  const auto candidates =
      enumerate_design_space(axes, factory, &result.skipped_labels);
  result.points_skipped = result.skipped_labels.size();
  if (candidates.empty())
    throw std::invalid_argument(
        "explore_design_space: factory skipped every point");
  result.outcome = run_methodology(candidates, requirements, device, n_threads);
  return result;
}

}  // namespace rat::core
