#include "load/schedule.hpp"

#include <cmath>
#include <stdexcept>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace rat::load {

std::optional<Arrival> parse_arrival(std::string_view name) {
  if (name == "constant") return Arrival::kConstant;
  if (name == "poisson") return Arrival::kPoisson;
  return std::nullopt;
}

const char* arrival_name(Arrival kind) {
  switch (kind) {
    case Arrival::kConstant: return "constant";
    case Arrival::kPoisson: return "poisson";
  }
  return "constant";
}

std::vector<std::uint64_t> build_schedule(Arrival kind, double rate_hz,
                                          std::size_t count,
                                          std::uint64_t seed) {
  util::require_positive(rate_hz, "build_schedule: rate_hz must be > 0");
  std::vector<std::uint64_t> offsets;
  offsets.reserve(count);
  if (count == 0) return offsets;

  constexpr double kNsPerSec = 1e9;
  switch (kind) {
    case Arrival::kConstant:
      for (std::size_t i = 0; i < count; ++i)
        offsets.push_back(static_cast<std::uint64_t>(
            std::llround(static_cast<double>(i) * kNsPerSec / rate_hz)));
      break;
    case Arrival::kPoisson: {
      // First arrival at t=0 so every schedule starts immediately; the
      // remaining gaps are exponential with mean 1/rate. uniform() is in
      // [0, 1), so 1-u is in (0, 1] and the log is finite.
      util::Rng rng(seed);
      double t_ns = 0.0;
      offsets.push_back(0);
      for (std::size_t i = 1; i < count; ++i) {
        const double gap_sec = -std::log(1.0 - rng.uniform()) / rate_hz;
        t_ns += gap_sec * kNsPerSec;
        offsets.push_back(static_cast<std::uint64_t>(std::llround(t_ns)));
      }
      break;
    }
  }
  return offsets;
}

}  // namespace rat::load
