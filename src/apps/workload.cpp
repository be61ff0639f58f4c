#include "apps/workload.hpp"

#include <cmath>
#include <stdexcept>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace rat::apps {

std::vector<MixtureComponent> default_mixture_1d() {
  return {{0.3, 0.06, 0.6}, {0.7, 0.10, 0.4}};
}

std::vector<double> gaussian_mixture_1d(
    std::size_t n, const std::vector<MixtureComponent>& mix,
    std::uint64_t seed) {
  if (mix.empty())
    throw std::invalid_argument("gaussian_mixture_1d: empty mixture");
  double total_weight = 0.0;
  for (const auto& c : mix) total_weight += c.weight;
  util::require_positive(total_weight,
                         "gaussian_mixture_1d: non-positive weights");

  util::Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  while (out.size() < n) {
    // Pick a component by weight, then draw; resample outside [0,1).
    double u = rng.uniform() * total_weight;
    std::size_t k = 0;
    for (; k + 1 < mix.size(); ++k) {
      if (u < mix[k].weight) break;
      u -= mix[k].weight;
    }
    const double x = rng.normal(mix[k].mean, mix[k].sigma);
    if (x >= 0.0 && x < 1.0) out.push_back(x);
  }
  return out;
}

std::vector<std::array<double, 2>> gaussian_mixture_2d(std::size_t n,
                                                       std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::array<double, 2>> out;
  out.reserve(n);
  // Two anisotropic blobs rotated 30 degrees: correlated, non-separable.
  const double c = std::cos(M_PI / 6.0), s = std::sin(M_PI / 6.0);
  while (out.size() < n) {
    const bool first = rng.uniform() < 0.55;
    const double mx = first ? 0.35 : 0.65;
    const double my = first ? 0.40 : 0.62;
    const double u = rng.normal(0.0, first ? 0.10 : 0.06);
    const double v = rng.normal(0.0, first ? 0.04 : 0.08);
    const double x = mx + c * u - s * v;
    const double y = my + s * u + c * v;
    if (x >= 0.0 && x < 1.0 && y >= 0.0 && y < 1.0) out.push_back({x, y});
  }
  return out;
}

ParticleSystem particle_box(std::size_t n, double box_length,
                            double temperature, std::uint64_t seed) {
  if (n == 0) throw std::invalid_argument("particle_box: n == 0");
  if (!(box_length > 0.0) || !(temperature >= 0.0))
    throw std::invalid_argument("particle_box: bad box/temperature");
  util::Rng rng(seed);
  ParticleSystem sys;
  sys.box_length = box_length;
  auto reserve = [&](std::vector<double>& v) { v.resize(n); };
  reserve(sys.px); reserve(sys.py); reserve(sys.pz);
  reserve(sys.vx); reserve(sys.vy); reserve(sys.vz);
  reserve(sys.ax); reserve(sys.ay); reserve(sys.az);
  const double vth = std::sqrt(temperature);
  for (std::size_t i = 0; i < n; ++i) {
    sys.px[i] = rng.uniform(0.0, box_length);
    sys.py[i] = rng.uniform(0.0, box_length);
    sys.pz[i] = rng.uniform(0.0, box_length);
    sys.vx[i] = rng.normal(0.0, vth);
    sys.vy[i] = rng.normal(0.0, vth);
    sys.vz[i] = rng.normal(0.0, vth);
    sys.ax[i] = sys.ay[i] = sys.az[i] = 0.0;
  }
  return sys;
}

}  // namespace rat::apps
