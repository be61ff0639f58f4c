#include "apps/md.hpp"

#include <cmath>
#include <stdexcept>

#include "util/require.hpp"

namespace rat::apps {

void MdConfig::validate() const {
  util::require_positive(cutoff, "MdConfig: cutoff <= 0");
  util::require_positive(epsilon, "MdConfig: epsilon <= 0");
  util::require_positive(sigma_lj, "MdConfig: sigma_lj <= 0");
  util::require_positive(dt, "MdConfig: dt <= 0");
}

namespace {

/// Minimum-image displacement component.
inline double min_image(double d, double box, bool periodic) {
  if (!periodic) return d;
  if (d > 0.5 * box) return d - box;
  if (d < -0.5 * box) return d + box;
  return d;
}

/// Shared all-pairs force loop over a floating-point type T.
template <typename T>
ForceResult forces_impl(ParticleSystem& sys, const MdConfig& cfg,
                        OpCounter* ops) {
  cfg.validate();
  const std::size_t n = sys.size();
  if (n < 2) throw std::invalid_argument("compute_forces: need >= 2 particles");
  const T box = static_cast<T>(sys.box_length);
  const T rc2 = static_cast<T>(cfg.cutoff * cfg.cutoff);
  const T sig2 = static_cast<T>(cfg.sigma_lj * cfg.sigma_lj);
  const T eps24 = static_cast<T>(24.0 * cfg.epsilon);
  // Shifted potential: subtract U(rc) so energy is continuous at cutoff.
  const T src2 = sig2 / rc2;
  const T src6 = src2 * src2 * src2;
  const T u_shift = static_cast<T>(4.0 * cfg.epsilon) * (src6 * src6 - src6);

  std::fill(sys.ax.begin(), sys.ax.end(), 0.0);
  std::fill(sys.ay.begin(), sys.ay.end(), 0.0);
  std::fill(sys.az.begin(), sys.az.end(), 0.0);

  ForceResult res;
  T pe = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const T xi = static_cast<T>(sys.px[i]);
    const T yi = static_cast<T>(sys.py[i]);
    const T zi = static_cast<T>(sys.pz[i]);
    for (std::size_t j = i + 1; j < n; ++j) {
      T dx = static_cast<T>(min_image(static_cast<double>(xi) - sys.px[j],
                                      sys.box_length, cfg.periodic));
      T dy = static_cast<T>(min_image(static_cast<double>(yi) - sys.py[j],
                                      sys.box_length, cfg.periodic));
      T dz = static_cast<T>(min_image(static_cast<double>(zi) - sys.pz[j],
                                      sys.box_length, cfg.periodic));
      (void)box;
      const T r2 = dx * dx + dy * dy + dz * dz;
      ++res.pairs_checked;
      if (ops) {
        ops->subs += 3;     // displacement components
        ops->muls += 3;     // squares
        ops->adds += 2;     // r^2 accumulation
        ops->compares += 1; // cutoff test
      }
      if (r2 >= rc2 || r2 == T(0)) continue;
      ++res.interactions;
      const T inv_r2 = T(1) / r2;
      const T sr2 = sig2 * inv_r2;
      const T sr6 = sr2 * sr2 * sr2;
      const T sr12 = sr6 * sr6;
      // LJ: U = 4 eps (sr12 - sr6); F/r = 24 eps (2 sr12 - sr6) / r^2.
      const T fscale = eps24 * (T(2) * sr12 - sr6) * inv_r2;
      pe += T(4) * static_cast<T>(cfg.epsilon) * (sr12 - sr6) - u_shift;
      const T fx = fscale * dx;
      const T fy = fscale * dy;
      const T fz = fscale * dz;
      sys.ax[i] += static_cast<double>(fx);
      sys.ay[i] += static_cast<double>(fy);
      sys.az[i] += static_cast<double>(fz);
      sys.ax[j] -= static_cast<double>(fx);
      sys.ay[j] -= static_cast<double>(fy);
      sys.az[j] -= static_cast<double>(fz);
      if (ops) {
        ops->divs += 1;      // inv_r2
        ops->muls += 10;     // sr2/sr6/sr12/fscale/force components/energy
        ops->subs += 2;      // (2 sr12 - sr6), (sr12 - sr6)
        ops->adds += 8;      // energy + 6 accumulations + shift
      }
    }
  }
  res.potential_energy = static_cast<double>(pe);
  return res;
}

}  // namespace

ForceResult compute_forces(ParticleSystem& sys, const MdConfig& cfg) {
  return forces_impl<double>(sys, cfg, nullptr);
}

ForceResult compute_forces_counted(ParticleSystem& sys, const MdConfig& cfg,
                                   OpCounter& ops) {
  return forces_impl<double>(sys, cfg, &ops);
}

ForceResult compute_forces_f32(ParticleSystem& sys, const MdConfig& cfg) {
  return forces_impl<float>(sys, cfg, nullptr);
}

ForceResult compute_forces_celllist(ParticleSystem& sys,
                                    const MdConfig& cfg) {
  cfg.validate();
  const std::size_t n = sys.size();
  if (n < 2)
    throw std::invalid_argument("compute_forces_celllist: need >= 2");
  const double box = sys.box_length;
  const auto cells_per_dim =
      static_cast<std::size_t>(std::floor(box / cfg.cutoff));
  if (!cfg.periodic || cells_per_dim < 3) return compute_forces(sys, cfg);

  const double cell_size = box / static_cast<double>(cells_per_dim);
  const std::size_t n_cells = cells_per_dim * cells_per_dim * cells_per_dim;
  auto cell_of = [&](std::size_t i) {
    auto coord = [&](double p) {
      auto c = static_cast<std::size_t>(p / cell_size);
      return std::min(c, cells_per_dim - 1);  // guard p == box rounding
    };
    return (coord(sys.px[i]) * cells_per_dim + coord(sys.py[i])) *
               cells_per_dim +
           coord(sys.pz[i]);
  };

  // Bucket particles by cell.
  std::vector<std::vector<std::uint32_t>> buckets(n_cells);
  for (std::size_t i = 0; i < n; ++i)
    buckets[cell_of(i)].push_back(static_cast<std::uint32_t>(i));

  std::fill(sys.ax.begin(), sys.ax.end(), 0.0);
  std::fill(sys.ay.begin(), sys.ay.end(), 0.0);
  std::fill(sys.az.begin(), sys.az.end(), 0.0);

  const double rc2 = cfg.cutoff * cfg.cutoff;
  const double sig2 = cfg.sigma_lj * cfg.sigma_lj;
  const double eps24 = 24.0 * cfg.epsilon;
  const double src2 = sig2 / rc2;
  const double src6 = src2 * src2 * src2;
  const double u_shift = 4.0 * cfg.epsilon * (src6 * src6 - src6);

  ForceResult res;
  double pe = 0.0;
  auto interact = [&](std::size_t i, std::size_t j) {
    const double dx = min_image(sys.px[i] - sys.px[j], box, true);
    const double dy = min_image(sys.py[i] - sys.py[j], box, true);
    const double dz = min_image(sys.pz[i] - sys.pz[j], box, true);
    const double r2 = dx * dx + dy * dy + dz * dz;
    ++res.pairs_checked;
    if (r2 >= rc2 || r2 == 0.0) return;
    ++res.interactions;
    const double inv_r2 = 1.0 / r2;
    const double sr2 = sig2 * inv_r2;
    const double sr6 = sr2 * sr2 * sr2;
    const double sr12 = sr6 * sr6;
    const double fscale = eps24 * (2.0 * sr12 - sr6) * inv_r2;
    pe += 4.0 * cfg.epsilon * (sr12 - sr6) - u_shift;
    sys.ax[i] += fscale * dx;
    sys.ay[i] += fscale * dy;
    sys.az[i] += fscale * dz;
    sys.ax[j] -= fscale * dx;
    sys.ay[j] -= fscale * dy;
    sys.az[j] -= fscale * dz;
  };

  const auto cpd = static_cast<std::ptrdiff_t>(cells_per_dim);
  for (std::size_t cx = 0; cx < cells_per_dim; ++cx) {
    for (std::size_t cy = 0; cy < cells_per_dim; ++cy) {
      for (std::size_t cz = 0; cz < cells_per_dim; ++cz) {
        const std::size_t home =
            (cx * cells_per_dim + cy) * cells_per_dim + cz;
        const auto& a = buckets[home];
        // Within the home cell: ordered pairs once.
        for (std::size_t p = 0; p < a.size(); ++p)
          for (std::size_t q = p + 1; q < a.size(); ++q)
            interact(a[p], a[q]);
        // Neighbor cells: visit each unordered cell pair once by only
        // scanning the 13 "forward" offsets.
        static constexpr std::ptrdiff_t kForward[13][3] = {
            {1, 0, 0},  {0, 1, 0},  {0, 0, 1},  {1, 1, 0},  {1, -1, 0},
            {1, 0, 1},  {1, 0, -1}, {0, 1, 1},  {0, 1, -1}, {1, 1, 1},
            {1, 1, -1}, {1, -1, 1}, {1, -1, -1}};
        for (const auto& off : kForward) {
          const auto wrap = [&](std::ptrdiff_t v) {
            return static_cast<std::size_t>((v % cpd + cpd) % cpd);
          };
          const std::size_t nb =
              (wrap(static_cast<std::ptrdiff_t>(cx) + off[0]) *
                   cells_per_dim +
               wrap(static_cast<std::ptrdiff_t>(cy) + off[1])) *
                  cells_per_dim +
              wrap(static_cast<std::ptrdiff_t>(cz) + off[2]);
          for (std::uint32_t i : a)
            for (std::uint32_t j : buckets[nb]) interact(i, j);
        }
      }
    }
  }
  res.potential_energy = pe;
  return res;
}

ForceResult velocity_verlet_step(ParticleSystem& sys, const MdConfig& cfg) {
  cfg.validate();
  const std::size_t n = sys.size();
  const double dt = cfg.dt;
  const double half_dt = 0.5 * dt;
  // Kick-drift using current accelerations.
  for (std::size_t i = 0; i < n; ++i) {
    sys.vx[i] += half_dt * sys.ax[i];
    sys.vy[i] += half_dt * sys.ay[i];
    sys.vz[i] += half_dt * sys.az[i];
    auto wrap = [&](double p) {
      if (!cfg.periodic) return p;
      p = std::fmod(p, sys.box_length);
      return p < 0.0 ? p + sys.box_length : p;
    };
    sys.px[i] = wrap(sys.px[i] + dt * sys.vx[i]);
    sys.py[i] = wrap(sys.py[i] + dt * sys.vy[i]);
    sys.pz[i] = wrap(sys.pz[i] + dt * sys.vz[i]);
  }
  const ForceResult res = compute_forces(sys, cfg);
  for (std::size_t i = 0; i < n; ++i) {
    sys.vx[i] += half_dt * sys.ax[i];
    sys.vy[i] += half_dt * sys.ay[i];
    sys.vz[i] += half_dt * sys.az[i];
  }
  return res;
}

double kinetic_energy(const ParticleSystem& sys) {
  double ke = 0.0;
  for (std::size_t i = 0; i < sys.size(); ++i)
    ke += sys.vx[i] * sys.vx[i] + sys.vy[i] * sys.vy[i] +
          sys.vz[i] * sys.vz[i];
  return 0.5 * ke;
}

double temperature(const ParticleSystem& sys) {
  if (sys.size() == 0) return 0.0;
  return 2.0 * kinetic_energy(sys) / (3.0 * static_cast<double>(sys.size()));
}

double net_momentum(const ParticleSystem& sys) {
  double px = 0.0, py = 0.0, pz = 0.0;
  for (std::size_t i = 0; i < sys.size(); ++i) {
    px += sys.vx[i];
    py += sys.vy[i];
    pz += sys.vz[i];
  }
  return std::sqrt(px * px + py * py + pz * pz);
}

double md_measured_ops_per_element(const ParticleSystem& sys,
                                   const MdConfig& cfg) {
  ParticleSystem copy = sys;
  OpCounter ops;
  compute_forces_counted(copy, cfg, ops);
  return static_cast<double>(ops.total_weighted()) /
         static_cast<double>(sys.size());
}

MdDesign::MdDesign(MdConfig cfg, int lanes) : cfg_(cfg), lanes_(lanes) {
  cfg_.validate();
  if (lanes_ <= 0) throw std::invalid_argument("MdDesign: lanes <= 0");
}

std::uint64_t MdDesign::cycles_from_counts(std::uint64_t interactions,
                                           std::size_t n_molecules) const {
  // Symmetric pair forces are computed once per pair in software, but the
  // hardware lanes evaluate each molecule's full neighborhood, so scale to
  // directed interactions.
  const std::uint64_t directed = 2 * interactions;
  const auto candidates =
      static_cast<std::uint64_t>(candidate_ratio_ * static_cast<double>(directed));
  const std::uint64_t misses = candidates - directed;
  const std::uint64_t lane_cycles =
      directed * static_cast<std::uint64_t>(cycles_per_hit_) +
      misses * static_cast<std::uint64_t>(cycles_per_miss_);
  return lane_cycles / static_cast<std::uint64_t>(lanes_) +
         static_cast<std::uint64_t>(n_molecules) *
             static_cast<std::uint64_t>(per_molecule_overhead_);
}

std::uint64_t MdDesign::cycles_for(const ParticleSystem& sys) const {
  ParticleSystem copy = sys;
  const ForceResult res = compute_forces_f32(copy, cfg_);
  return cycles_from_counts(res.interactions, sys.size());
}

rcsim::IterationIo MdDesign::io(std::size_t n_molecules) const {
  rcsim::IterationIo io;
  const auto bytes = static_cast<std::size_t>(
      static_cast<double>(n_molecules) * ParticleSystem::kBytesPerElement);
  io.input_chunks_bytes = {bytes};
  io.output_chunks_bytes = {bytes};
  return io;
}

rcsim::Workload MdDesign::workload(std::uint64_t cycles,
                                   std::size_t n_molecules) const {
  rcsim::Workload w;
  w.n_iterations = 1;
  w.io = [d = *this, n_molecules](std::size_t) { return d.io(n_molecules); };
  w.cycles = [cycles](std::size_t) { return cycles; };
  return w;
}

std::vector<core::ResourceItem> MdDesign::resource_items() const {
  std::vector<core::ResourceItem> items;
  // Each lane's force pipeline: ~18 single-precision multipliers (36-bit
  // mantissa products -> 8 DSP elements each on Stratix-II) plus division
  // and accumulation logic. Impulse-C generated units are not shared, so
  // the lanes dominate the chip — the paper reports a large percentage of
  // DSPs and combinatorial logic consumed (Table 10).
  items.push_back(core::ResourceItem{
      "force lane (fp32 LJ pipeline)", /*multiplier_count=*/18,
      /*multiplier_bits=*/36, /*buffer_bytes=*/0, /*logic_elements=*/24500,
      /*instances=*/lanes_});
  // Neighborhood FIFOs and staging buffers in M4K blocks. Bulk particle
  // storage (16384 x 36 B) sits in the EP2S180's M-RAM megablocks, which
  // the three-class resource model does not track.
  items.push_back(core::ResourceItem{"candidate FIFOs / staging", 0, 36,
                                     /*buffer_bytes=*/210 * 1024, 4200, 1});
  items.push_back(core::ResourceItem{"HT interface wrapper", 0, 36,
                                     /*buffer_bytes=*/16 * 1024, 6800, 1});
  return items;
}

}  // namespace rat::apps
