// End-to-end reproduction of the paper's three case studies: RAT worksheet
// prediction (Tables 3/6/9 predicted columns) against the simulated
// platform "actual" columns, asserting the error *structure* the paper
// reports rather than exact hardware numbers. See EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/case_study.hpp"
#include "apps/hw_run.hpp"
#include "apps/md.hpp"
#include "apps/workload.hpp"
#include "core/throughput.hpp"
#include "core/units.hpp"
#include "core/validation.hpp"
#include "rcsim/platform.hpp"

namespace rat {
namespace {

using apps::CaseStudyKind;
using core::mhz;

apps::SimulatedRun simulate(CaseStudyKind kind, double fclock,
                            rcsim::Buffering buf = rcsim::Buffering::kSingle) {
  const auto cs = apps::case_study(kind);
  return apps::simulate_on_platform(cs.workload, cs.platform, fclock, buf,
                                    cs.inputs.software.tsoft_sec);
}

// ----------------------------------------------------------- 1-D PDF (§4)
TEST(CaseStudyPdf1d, Table3ActualColumnShape) {
  const auto run = simulate(CaseStudyKind::kPdf1d, mhz(150));
  const core::Measured& m = run.measured;
  // Paper actual column at 150 MHz: tcomm 2.5E-5, tcomp 1.39E-4,
  // tRC 7.45E-2, speedup 7.8, utilcomm 15%.
  EXPECT_NEAR(m.t_comm_sec, 2.5e-5, 0.5e-5);
  EXPECT_NEAR(m.t_comp_sec, 1.39e-4, 0.03e-4);
  EXPECT_NEAR(m.t_rc_sec, 7.45e-2, 0.15e-2);
  EXPECT_NEAR(m.speedup, 7.8, 0.2);
  EXPECT_NEAR(m.util_comm, 0.15, 0.03);
  EXPECT_TRUE(run.exec.timeline.lanes_consistent());
}

TEST(CaseStudyPdf1d, ErrorStructureMatchesSection43) {
  const auto pred = core::predict(core::pdf1d_inputs(), mhz(150));
  const auto m = simulate(CaseStudyKind::kPdf1d, mhz(150)).measured;
  const auto rep = core::validate(pred, m);
  // "The discrepancy in speed in this case is due to the inaccuracies in
  // the tcomm estimation": comm badly under-predicted, comp within a few %.
  EXPECT_GT(rep.comm_error_percent, 200.0);
  EXPECT_LT(std::fabs(rep.comp_error_percent), 10.0);
  EXPECT_TRUE(rep.within_order_of_magnitude());
  // Speedup over-predicted (10.6 predicted vs ~7.8 actual).
  EXPECT_LT(rep.speedup_error_percent, -15.0);
}

TEST(CaseStudyPdf1d, SpeedupGrowsWithClock) {
  double prev = 0.0;
  for (double f : {mhz(75), mhz(100), mhz(150)}) {
    const double s = simulate(CaseStudyKind::kPdf1d, f).measured.speedup;
    EXPECT_GT(s, prev);
    prev = s;
  }
  EXPECT_GT(prev, 5.0);  // still a solid win at 150 MHz
}

TEST(CaseStudyPdf1d, DoubleBufferingMasksCommunicationError) {
  // Paper §4.3: "Had the communication been double buffered, the
  // inaccuracies in the communication time could have been masked behind
  // the more stable computation time for a more accurate (and higher)
  // speedup."
  const auto sb =
      simulate(CaseStudyKind::kPdf1d, mhz(150), rcsim::Buffering::kSingle);
  const auto db =
      simulate(CaseStudyKind::kPdf1d, mhz(150), rcsim::Buffering::kDouble);
  EXPECT_GT(db.measured.speedup, sb.measured.speedup);
  const auto pred = core::predict(core::pdf1d_inputs(), mhz(150));
  const double sb_err =
      std::fabs(sb.measured.speedup - pred.speedup_sb) / pred.speedup_sb;
  const double db_err =
      std::fabs(db.measured.speedup - pred.speedup_db) / pred.speedup_db;
  EXPECT_LT(db_err, sb_err);
}

// ----------------------------------------------------------- 2-D PDF (§5.1)
TEST(CaseStudyPdf2d, CommunicationSixTimesLargerThanPredicted) {
  const auto pred = core::predict(core::pdf2d_inputs(), mhz(150));
  const auto m = simulate(CaseStudyKind::kPdf2d, mhz(150)).measured;
  const double ratio = m.t_comm_sec / pred.t_comm_sec;
  EXPECT_NEAR(ratio, 6.0, 0.5);          // "communication six times larger"
  EXPECT_NEAR(m.util_comm, 0.19, 0.02);  // "19% of the total execution"
}

TEST(CaseStudyPdf2d, ConservativeComputationBalancesCommunication) {
  const auto pred = core::predict(core::pdf2d_inputs(), mhz(150));
  const auto m = simulate(CaseStudyKind::kPdf2d, mhz(150)).measured;
  // Computation over-predicted...
  EXPECT_LT(m.t_comp_sec, pred.t_comp_sec);
  // ...so overall speedup lands close to (slightly above) the prediction.
  EXPECT_NEAR(m.speedup, pred.speedup_sb, 1.0);
  EXPECT_GT(m.speedup, pred.speedup_sb);
}

TEST(CaseStudyPdf2d, LowerSpeedupThan1dDespiteMoreParallelism) {
  // Paper: increased communication demands of the higher order reduced
  // the speedup relative to the 1-D design.
  const double s1 = simulate(CaseStudyKind::kPdf1d, mhz(150)).measured.speedup;
  const double s2 = simulate(CaseStudyKind::kPdf2d, mhz(150)).measured.speedup;
  EXPECT_LT(s2, s1);
}

// ------------------------------------------------------------- MD (§5.2)
TEST(CaseStudyMd, Table9ActualColumnShape) {
  const auto m = simulate(CaseStudyKind::kMd, mhz(100)).measured;
  // Paper actual at 100 MHz: tcomm 1.39E-3, tcomp 8.79E-1, tRC 8.80E-1,
  // speedup 6.6.
  EXPECT_NEAR(m.t_comm_sec, 1.39e-3, 0.1e-3);
  EXPECT_NEAR(m.t_comp_sec, 8.79e-1, 0.5e-1);
  EXPECT_NEAR(m.t_rc_sec, 8.80e-1, 0.5e-1);
  EXPECT_NEAR(m.speedup, 6.6, 0.4);
}

TEST(CaseStudyMd, PredictionsSameOrderOfMagnitude) {
  const auto pred = core::predict(core::md_inputs(), mhz(100));
  const auto m = simulate(CaseStudyKind::kMd, mhz(100)).measured;
  const auto rep = core::validate(pred, m);
  // "The actual communication times is the same order of magnitude as the
  // predicted value... Computation dominated the overall RC execution time
  // and the actual time was also the same order of magnitude."
  EXPECT_TRUE(rep.within_order_of_magnitude());
  // Communication was *over*-predicted, computation *under*-predicted.
  EXPECT_LT(rep.comm_error_percent, 0.0);
  EXPECT_GT(rep.comp_error_percent, 20.0);
}

TEST(CaseStudyMd, ComputationUtterlyDominates) {
  const auto m = simulate(CaseStudyKind::kMd, mhz(100)).measured;
  EXPECT_GT(m.util_comp, 0.99);
  EXPECT_LT(m.util_comm, 0.01);
}

TEST(CaseStudyMd, MultiTimestepRunWithDataDependentCycles) {
  // A production MD run executes many timesteps; the per-iteration fabric
  // cycles move with the evolving particle locality. The executor's
  // per-iteration cycle callback carries that through, and the simulated
  // total equals the sum of the per-step times plus I/O.
  const std::size_t n = 512;
  const std::size_t steps = 5;
  apps::MdConfig cfg;
  cfg.dt = 2e-6;
  const apps::MdDesign design(cfg);

  auto sys = apps::particle_box(n, 1.0, 0.5, 909);
  apps::compute_forces(sys, cfg);
  std::vector<std::uint64_t> per_step_cycles;
  for (std::size_t s = 0; s < steps; ++s) {
    const auto res = apps::velocity_verlet_step(sys, cfg);
    per_step_cycles.push_back(
        design.cycles_from_counts(res.interactions, n));
  }

  rcsim::Workload w;
  w.n_iterations = steps;
  w.io = [&](std::size_t) { return design.io(n); };
  w.cycles = [&](std::size_t i) { return per_step_cycles[i]; };
  const auto run = apps::simulate_on_platform(
      w, rcsim::xd1000(), mhz(100), rcsim::Buffering::kSingle, 1.0);

  std::uint64_t total_cycles = 0;
  for (auto c : per_step_cycles) total_cycles += c;
  EXPECT_NEAR(run.exec.t_comp_sec,
              static_cast<double>(total_cycles) / mhz(100),
              1e-12 * run.exec.t_comp_sec);
  // Every step produced a distinct compute event with its own duration.
  std::size_t computes = 0;
  for (const auto& e : run.exec.timeline.events())
    if (e.kind == rcsim::EventKind::kCompute) ++computes;
  EXPECT_EQ(computes, steps);
  EXPECT_TRUE(run.exec.timeline.lanes_consistent());
}

}  // namespace
}  // namespace rat
