#include "core/sensitivity.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/units.hpp"

namespace rat::core {
namespace {

TEST(SolveThroughputProc, ReproducesMdTuning) {
  // Paper §5.2: "50 is the quantitative value computed by the equations to
  // achieve the desired overall speedup of approximately 10x".
  const RatInputs in = md_inputs();
  // Solving for exactly 10x yields ~47 ops/cycle; the authors rounded up
  // to 50, which predicts 10.7x (Table 9's 100 MHz column).
  const auto tp10 =
      solve_throughput_proc(in, mhz(100), 10.0, BufferingMode::kSingle);
  ASSERT_TRUE(tp10.has_value());
  EXPECT_NEAR(*tp10, 46.7, 0.5);
  EXPECT_LT(*tp10, 50.0);
  const auto tp107 =
      solve_throughput_proc(in, mhz(100), 10.7, BufferingMode::kSingle);
  ASSERT_TRUE(tp107.has_value());
  EXPECT_NEAR(*tp107, 50.0, 0.2);
}

TEST(SolveThroughputProc, RoundTripThroughPredict) {
  for (const RatInputs& base :
       {pdf1d_inputs(), pdf2d_inputs(), md_inputs()}) {
    for (double target : {2.0, 5.0, 8.0}) {
      const auto tp = solve_throughput_proc(base, mhz(100), target,
                                            BufferingMode::kSingle);
      if (!tp) continue;
      RatInputs tuned = base;
      tuned.comp.throughput_ops_per_cycle = *tp;
      EXPECT_NEAR(predict(tuned, mhz(100)).speedup_sb, target,
                  1e-6 * target)
          << base.name;
    }
  }
}

TEST(SolveThroughputProc, DoubleBufferedNeedsLessCapability) {
  const RatInputs in = pdf2d_inputs();
  const auto sb =
      solve_throughput_proc(in, mhz(100), 5.0, BufferingMode::kSingle);
  const auto db =
      solve_throughput_proc(in, mhz(100), 5.0, BufferingMode::kDouble);
  ASSERT_TRUE(sb && db);
  EXPECT_LT(*db, *sb);
}

TEST(SolveThroughputProc, UnreachableTargetReturnsNullopt) {
  const RatInputs in = pdf1d_inputs();
  // Communication alone caps the speedup; ask above that cap.
  const double cap = speedup_upper_bound(in);
  EXPECT_FALSE(solve_throughput_proc(in, mhz(100), cap * 1.01,
                                     BufferingMode::kSingle)
                   .has_value());
  EXPECT_TRUE(solve_throughput_proc(in, mhz(100), cap * 0.5,
                                    BufferingMode::kSingle)
                  .has_value());
}

TEST(SolveThroughputProc, InvalidTargets) {
  EXPECT_THROW(solve_throughput_proc(pdf1d_inputs(), mhz(100), 0.0,
                                     BufferingMode::kSingle),
               std::invalid_argument);
  EXPECT_THROW(solve_throughput_proc(pdf1d_inputs(), 0.0, 5.0,
                                     BufferingMode::kSingle),
               std::invalid_argument);
}

TEST(SolveFclock, RoundTripThroughPredict) {
  const RatInputs in = pdf1d_inputs();
  const auto f = solve_fclock(in, 8.0, BufferingMode::kSingle);
  ASSERT_TRUE(f.has_value());
  EXPECT_NEAR(predict(in, *f).speedup_sb, 8.0, 1e-6);
}

TEST(SolveFclock, HigherTargetNeedsHigherClock) {
  const RatInputs in = pdf1d_inputs();
  const auto f5 = solve_fclock(in, 5.0, BufferingMode::kSingle);
  const auto f10 = solve_fclock(in, 10.0, BufferingMode::kSingle);
  ASSERT_TRUE(f5 && f10);
  EXPECT_GT(*f10, *f5);
}

TEST(SpeedupUpperBound, MatchesInfiniteComputeRate) {
  RatInputs in = pdf2d_inputs();
  const double bound = speedup_upper_bound(in);
  in.comp.throughput_ops_per_cycle = 1e15;
  EXPECT_NEAR(predict(in, mhz(100)).speedup_sb, bound, 1e-6 * bound);
}

TEST(SweepParameter, AppliesSetterPerValue) {
  const RatInputs in = pdf1d_inputs();
  const auto preds = sweep_parameter(
      in,
      [](RatInputs& r, double v) { r.comp.throughput_ops_per_cycle = v; },
      {10.0, 20.0, 40.0}, mhz(150));
  ASSERT_EQ(preds.size(), 3u);
  EXPECT_NEAR(preds[0].t_comp_sec, 2.0 * preds[1].t_comp_sec, 1e-12);
  EXPECT_NEAR(preds[1].t_comp_sec, 2.0 * preds[2].t_comp_sec, 1e-12);
  EXPECT_THROW(sweep_parameter(in, nullptr, {1.0}, mhz(100)),
               std::invalid_argument);
}

TEST(Tornado, RanksComputationParametersFirstForComputeBoundApp) {
  // MD at 100 MHz is 99%+ computation: ops/element and throughput_proc
  // must dominate the tornado; alphas must be negligible.
  const auto entries = tornado(md_inputs(), mhz(100), 0.2);
  ASSERT_GE(entries.size(), 4u);
  EXPECT_TRUE(entries[0].parameter == "ops_per_element" ||
              entries[0].parameter == "throughput_proc");
  for (const auto& e : entries) {
    if (e.parameter == "alpha_write" || e.parameter == "alpha_read") {
      EXPECT_LT(e.swing(), entries[0].swing() * 0.05);
    }
  }
}

TEST(Tornado, SortedByDescendingSwing) {
  const auto entries = tornado(pdf2d_inputs(), mhz(150), 0.25);
  for (std::size_t i = 1; i < entries.size(); ++i)
    EXPECT_GE(entries[i - 1].swing(), entries[i].swing());
}

TEST(Tornado, SwingBracketsBaseline) {
  const double base = predict(pdf1d_inputs(), mhz(100)).speedup_sb;
  for (const auto& e : tornado(pdf1d_inputs(), mhz(100), 0.2)) {
    EXPECT_LE(e.speedup_low, base + 1e-9) << e.parameter;
    EXPECT_GE(e.speedup_high, base - 1e-9) << e.parameter;
  }
}

TEST(Tornado, FractionValidation) {
  EXPECT_THROW(tornado(pdf1d_inputs(), mhz(100), 0.0),
               std::invalid_argument);
  EXPECT_THROW(tornado(pdf1d_inputs(), mhz(100), 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace rat::core
