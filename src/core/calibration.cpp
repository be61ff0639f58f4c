#include "core/calibration.hpp"

#include <cmath>
#include <set>
#include <stdexcept>

#include "util/require.hpp"

namespace rat::core {

rcsim::LinkDirection LinkFit::to_direction(double rearm_sec) const {
  return rcsim::LinkDirection{fixed_overhead_sec, sustained_bw, rearm_sec};
}

double LinkFit::alpha_at(std::size_t bytes, double documented_bw) const {
  if (bytes == 0 || documented_bw <= 0.0) return 0.0;
  const double t =
      fixed_overhead_sec + static_cast<double>(bytes) / sustained_bw;
  return static_cast<double>(bytes) / documented_bw / t;
}

LinkFit fit_link_direction(std::span<const TransferSample> samples) {
  if (samples.size() < 2)
    throw std::invalid_argument("fit_link_direction: need >= 2 samples");
  std::set<std::size_t> sizes;
  for (const auto& s : samples) {
    util::require_positive(s.time_sec, "fit_link_direction: non-positive time");
    sizes.insert(s.bytes);
  }
  if (sizes.size() < 2)
    throw std::invalid_argument(
        "fit_link_direction: need >= 2 distinct sizes");

  // Ordinary least squares of time on bytes: time = a + b * bytes.
  const double n = static_cast<double>(samples.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& s : samples) {
    const double x = static_cast<double>(s.bytes);
    sx += x;
    sy += s.time_sec;
    sxx += x * x;
    sxy += x * s.time_sec;
  }
  const double denom = n * sxx - sx * sx;
  const double b = (n * sxy - sx * sy) / denom;
  const double a = (sy - b * sx) / n;
  util::require_positive(
      b,
      "fit_link_direction: non-positive per-byte cost; data does not fit "
      "the latency+bandwidth model");

  LinkFit fit;
  // A slightly negative intercept can fall out of noisy data; clamp to a
  // zero-overhead link rather than rejecting.
  fit.fixed_overhead_sec = std::max(0.0, a);
  fit.sustained_bw = 1.0 / b;

  const double mean_y = sy / n;
  double ss_res = 0.0, ss_tot = 0.0;
  for (const auto& s : samples) {
    const double model = a + b * static_cast<double>(s.bytes);
    ss_res += (s.time_sec - model) * (s.time_sec - model);
    ss_tot += (s.time_sec - mean_y) * (s.time_sec - mean_y);
    fit.max_relative_residual =
        std::fmax(fit.max_relative_residual,
                  std::fabs(model - s.time_sec) / s.time_sec);
  }
  fit.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

std::pair<LinkFit, LinkFit> calibrate_from_microbench(
    const rcsim::Link& link, const std::vector<std::size_t>& sizes,
    int repeats, std::uint64_t seed) {
  rcsim::Microbench mb(link, repeats, seed);
  std::vector<TransferSample> h2f, f2h;
  for (std::size_t bytes : sizes) {
    h2f.push_back({bytes,
                   mb.measure(bytes, rcsim::Direction::kHostToFpga).time_sec});
    f2h.push_back({bytes,
                   mb.measure(bytes, rcsim::Direction::kFpgaToHost).time_sec});
  }
  return {fit_link_direction(h2f), fit_link_direction(f2h)};
}

}  // namespace rat::core
