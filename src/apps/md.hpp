// Molecular dynamics (paper §5.2).
//
// Lennard-Jones particle simulation with a distance cutoff and
// velocity-Verlet integration, adapted in spirit from the ORNL code the
// paper used: distant molecules are assumed to have negligible interaction
// and are skipped, which makes the per-molecule work *data dependent* —
// exactly the property that made RAT's computation parameters a tuning
// exercise rather than a measurement (the paper solved throughput_proc=50
// backwards from a 10x speedup goal).
//
// The hardware design is a 4-lane force-pipeline array (Impulse-C in the
// paper, so the functional model runs in single-precision float rather
// than fixed point). Its cycle count is computed from the *actual*
// interaction counts of the dataset, so the simulated "measured" time
// falls short of the tuned worksheet exactly as the real system did
// (~30 effective ops/cycle versus the tuned 50).
#pragma once

#include <cstdint>
#include <vector>

#include "apps/opcount.hpp"
#include "apps/workload.hpp"
#include "core/parameters.hpp"
#include "core/resources.hpp"
#include "rcsim/executor.hpp"

namespace rat::apps {

struct MdConfig {
  double cutoff = 0.34;       ///< interaction cutoff, in box units
  double epsilon = 1.0;       ///< LJ well depth
  double sigma_lj = 0.03;     ///< LJ length scale
  double dt = 1e-5;           ///< integration timestep
  bool periodic = true;       ///< minimum-image periodic boundaries

  void validate() const;
};

/// Result of one force evaluation.
struct ForceResult {
  double potential_energy = 0.0;
  std::uint64_t pairs_checked = 0;
  std::uint64_t interactions = 0;  ///< pairs within cutoff
};

/// Double-precision all-pairs force computation with cutoff; fills
/// sys.ax/ay/az. The software baseline (tsoft path).
ForceResult compute_forces(ParticleSystem& sys, const MdConfig& cfg);

/// Instrumented variant tallying arithmetic per the OpCounter scope.
ForceResult compute_forces_counted(ParticleSystem& sys, const MdConfig& cfg,
                                   OpCounter& ops);

/// Single-precision variant — the functional model of the Impulse-C
/// hardware (HLL designs kept 32-bit floats; Table 8's 36 bytes/element is
/// 9 floats per molecule).
ForceResult compute_forces_f32(ParticleSystem& sys, const MdConfig& cfg);

/// Cell-list accelerated force computation: identical physics and
/// identical interaction set to compute_forces, O(N) for fixed density.
/// Falls back to the all-pairs loop when the box holds fewer than 3 cells
/// per dimension (the neighborhood would alias through the periodic
/// images). This is the production-shaped software baseline an ORNL-style
/// code would really use; the all-pairs loop remains as the oracle.
ForceResult compute_forces_celllist(ParticleSystem& sys, const MdConfig& cfg);

/// One velocity-Verlet step (uses compute_forces).
/// Returns the force result of the end-of-step evaluation.
ForceResult velocity_verlet_step(ParticleSystem& sys, const MdConfig& cfg);

/// Total kinetic energy (for conservation tests).
double kinetic_energy(const ParticleSystem& sys);

/// Instantaneous kinetic temperature: 2 KE / (3 N) in reduced units
/// (k_B = 1, unit mass).
double temperature(const ParticleSystem& sys);

/// Net momentum magnitude (should stay ~0: forces are pairwise equal and
/// opposite and the integrator preserves the total).
double net_momentum(const ParticleSystem& sys);

/// Measured ops per element (molecule) from the instrumented software —
/// the "software legacy code analysis" path for deriving Nops/element.
/// Uses weighted div/sqrt counts (they are iterative units in hardware).
double md_measured_ops_per_element(const ParticleSystem& sys,
                                   const MdConfig& cfg);

/// Hardware design model: a lane-parallel force pipeline array fed by an
/// on-chip candidate prefilter.
class MdDesign {
 public:
  explicit MdDesign(MdConfig cfg = {}, int lanes = 4);

  const MdConfig& config() const { return cfg_; }
  int lanes() const { return lanes_; }

  /// Data-dependent cycle count for one full force evaluation + update of
  /// @p sys: the prefilter emits ~candidate_ratio x (in-cutoff pairs)
  /// candidates; each miss costs 1 lane-cycle, each hit occupies a lane's
  /// force pipeline for cycles_per_hit (the Impulse-C inner loop is not
  /// fully pipelined).
  std::uint64_t cycles_for(const ParticleSystem& sys) const;

  /// Same, from a precomputed interaction count (avoids the O(N^2) pass).
  std::uint64_t cycles_from_counts(std::uint64_t interactions,
                                   std::size_t n_molecules) const;

  /// I/O: the whole dataset in and out once (Niter = 1).
  rcsim::IterationIo io(std::size_t n_molecules) const;

  /// One iteration: io(@p n_molecules) and @p cycles of computation, as
  /// returned by cycles_for or cycles_from_counts.
  rcsim::Workload workload(std::uint64_t cycles,
                           std::size_t n_molecules) const;

  std::vector<core::ResourceItem> resource_items() const;
  core::RatInputs rat_inputs() const { return core::md_inputs(); }

  // Timing-model knobs (fixed by calibration; see DESIGN.md).
  double candidate_ratio() const { return candidate_ratio_; }
  int cycles_per_hit() const { return cycles_per_hit_; }
  int cycles_per_miss() const { return cycles_per_miss_; }
  int per_molecule_overhead() const { return per_molecule_overhead_; }

 private:
  MdConfig cfg_;
  int lanes_;
  double candidate_ratio_ = 2.0;
  int cycles_per_hit_ = 7;
  int cycles_per_miss_ = 1;
  int per_molecule_overhead_ = 10;
};

}  // namespace rat::apps
