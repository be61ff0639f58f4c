// Verifies Equations (1)-(11) against the paper's published predicted
// values (Tables 3, 6 and 9) and checks the model's structural properties.
#include "core/throughput.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "core/units.hpp"
#include "util/format.hpp"

namespace rat::core {
namespace {

using util::sci;

// ---------------------------------------------------------------- Table 3
TEST(Table3, Pdf1dPredictedColumns) {
  const RatInputs in = pdf1d_inputs();

  const ThroughputPrediction p75 = predict(in, mhz(75));
  EXPECT_EQ(sci(p75.t_comm_sec), "5.56E-6");
  EXPECT_EQ(sci(p75.t_comp_sec), "2.62E-4");
  EXPECT_EQ(sci(p75.t_rc_sb_sec), "1.07E-1");
  EXPECT_EQ(util::fixed(p75.speedup_sb, 1), "5.4");
  EXPECT_EQ(util::percent(p75.util_comm_sb), "2%");

  const ThroughputPrediction p100 = predict(in, mhz(100));
  EXPECT_EQ(sci(p100.t_comp_sec), "1.97E-4");
  EXPECT_EQ(sci(p100.t_rc_sb_sec), "8.09E-2");
  EXPECT_EQ(util::fixed(p100.speedup_sb, 1), "7.1");  // paper rounds to 7.2
  EXPECT_NEAR(p100.speedup_sb, 7.2, 0.1);
  EXPECT_EQ(util::percent(p100.util_comm_sb), "3%");

  const ThroughputPrediction p150 = predict(in, mhz(150));
  EXPECT_EQ(sci(p150.t_comm_sec), "5.56E-6");
  EXPECT_EQ(sci(p150.t_comp_sec), "1.31E-4");
  // Exact arithmetic gives 5.4653E-2; the paper's 5.46E-2 comes from
  // re-multiplying already-rounded per-iteration terms.
  EXPECT_NEAR(p150.t_rc_sb_sec, 5.46e-2, 0.01e-2);
  EXPECT_EQ(util::fixed(p150.speedup_sb, 1), "10.6");
  EXPECT_EQ(util::percent(p150.util_comm_sb), "4%");
}

TEST(Table3, WorkedExampleFromSection43) {
  // The paper walks through tcomp at 150 MHz: 393216 ops / 3E+9 ops/sec.
  const ThroughputPrediction p = predict(pdf1d_inputs(), mhz(150));
  EXPECT_NEAR(p.t_comp_sec, 393216.0 / 3e9, 1e-12);
  // And tRC,SB = 400 * (5.56E-6 + 1.31E-4) = 5.46E-2.
  EXPECT_NEAR(p.t_rc_sb_sec, 5.466e-2, 1e-4);
}

// ---------------------------------------------------------------- Table 6
TEST(Table6, Pdf2dPredictedColumns) {
  const RatInputs in = pdf2d_inputs();

  const ThroughputPrediction p75 = predict(in, mhz(75));
  EXPECT_EQ(sci(p75.t_comm_sec), "1.65E-3");
  EXPECT_EQ(sci(p75.t_comp_sec), "1.12E-1");
  EXPECT_EQ(sci(p75.t_rc_sb_sec), "4.54E1");
  EXPECT_EQ(util::fixed(p75.speedup_sb, 1), "3.5");
  EXPECT_EQ(util::percent(p75.util_comm_sb), "1%");

  const ThroughputPrediction p100 = predict(in, mhz(100));
  EXPECT_EQ(sci(p100.t_comp_sec), "8.39E-2");
  EXPECT_EQ(sci(p100.t_rc_sb_sec), "3.42E1");
  EXPECT_EQ(util::fixed(p100.speedup_sb, 1), "4.6");
  EXPECT_EQ(util::percent(p100.util_comm_sb), "2%");

  const ThroughputPrediction p150 = predict(in, mhz(150));
  EXPECT_EQ(sci(p150.t_comp_sec), "5.59E-2");
  EXPECT_EQ(sci(p150.t_rc_sb_sec), "2.30E1");
  EXPECT_EQ(util::fixed(p150.speedup_sb, 1), "6.9");
  EXPECT_EQ(util::percent(p150.util_comm_sb), "3%");
}

// ---------------------------------------------------------------- Table 9
TEST(Table9, MdPredictedColumns) {
  const RatInputs in = md_inputs();

  const ThroughputPrediction p75 = predict(in, mhz(75));
  EXPECT_EQ(sci(p75.t_comm_sec), "2.62E-3");
  EXPECT_EQ(sci(p75.t_comp_sec), "7.17E-1");
  EXPECT_EQ(sci(p75.t_rc_sb_sec), "7.19E-1");
  EXPECT_EQ(util::fixed(p75.speedup_sb, 1), "8.0");
  EXPECT_EQ(util::percent(p75.util_comm_sb, 1), "0.4%");

  const ThroughputPrediction p100 = predict(in, mhz(100));
  EXPECT_EQ(sci(p100.t_comp_sec), "5.37E-1");
  EXPECT_EQ(sci(p100.t_rc_sb_sec), "5.40E-1");
  EXPECT_EQ(util::fixed(p100.speedup_sb, 1), "10.7");

  const ThroughputPrediction p150 = predict(in, mhz(150));
  EXPECT_EQ(sci(p150.t_comp_sec), "3.58E-1");
  EXPECT_EQ(sci(p150.t_rc_sb_sec), "3.61E-1");
  EXPECT_EQ(util::fixed(p150.speedup_sb, 1), "16.0");
  EXPECT_EQ(util::percent(p150.util_comm_sb, 1), "0.7%");
  EXPECT_EQ(util::percent(p150.util_comp_sb, 1), "99.3%");
}

// ------------------------------------------------------------- structure
TEST(Throughput, CommIndependentOfClock) {
  const RatInputs in = pdf1d_inputs();
  EXPECT_DOUBLE_EQ(predict(in, mhz(75)).t_comm_sec,
                   predict(in, mhz(150)).t_comm_sec);
}

TEST(Throughput, CompInverselyProportionalToClock) {
  const RatInputs in = pdf1d_inputs();
  const double t75 = predict(in, mhz(75)).t_comp_sec;
  const double t150 = predict(in, mhz(150)).t_comp_sec;
  EXPECT_NEAR(t75, 2.0 * t150, 1e-12);
}

TEST(Throughput, DoubleBufferedNeverSlower) {
  for (const RatInputs& in : {pdf1d_inputs(), pdf2d_inputs(), md_inputs()}) {
    for (double f : in.comp.fclock_hz) {
      const auto p = predict(in, f);
      EXPECT_LE(p.t_rc_db_sec, p.t_rc_sb_sec);
      EXPECT_GE(p.speedup_db, p.speedup_sb);
    }
  }
}

TEST(Throughput, SingleBufferedUtilizationsSumToOne) {
  for (const RatInputs& in : {pdf1d_inputs(), pdf2d_inputs(), md_inputs()}) {
    const auto p = predict(in, mhz(100));
    EXPECT_NEAR(p.util_comm_sb + p.util_comp_sb, 1.0, 1e-12);
  }
}

TEST(Throughput, DoubleBufferedDominantUtilizationIsOne) {
  for (const RatInputs& in : {pdf1d_inputs(), pdf2d_inputs(), md_inputs()}) {
    const auto p = predict(in, mhz(100));
    EXPECT_NEAR(std::max(p.util_comm_db, p.util_comp_db), 1.0, 1e-12);
    EXPECT_LE(std::min(p.util_comm_db, p.util_comp_db), 1.0);
  }
}

TEST(Throughput, CommunicationBoundFlag) {
  RatInputs in = pdf1d_inputs();
  EXPECT_FALSE(predict(in, mhz(100)).communication_bound());
  // Starve the bus: tiny alpha makes communication dominate.
  in.comm.alpha_write = 0.001;
  in.comm.alpha_read = 0.001;
  EXPECT_TRUE(predict(in, mhz(100)).communication_bound());
}

TEST(Throughput, SpeedupScalesWithSoftwareBaseline) {
  RatInputs in = pdf1d_inputs();
  const double s1 = predict(in, mhz(100)).speedup_sb;
  in.software.tsoft_sec *= 2.0;
  EXPECT_NEAR(predict(in, mhz(100)).speedup_sb, 2.0 * s1, 1e-9);
}

TEST(Throughput, PredictAllMatchesPerClockPredictions) {
  const RatInputs in = md_inputs();
  const auto all = predict_all(in);
  ASSERT_EQ(all.size(), 3u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto single = predict(in, in.comp.fclock_hz[i]);
    EXPECT_DOUBLE_EQ(all[i].t_comp_sec, single.t_comp_sec);
    EXPECT_DOUBLE_EQ(all[i].speedup_sb, single.speedup_sb);
  }
}

TEST(Throughput, RejectsInvalidInputs) {
  EXPECT_THROW(predict(pdf1d_inputs(), 0.0), std::invalid_argument);
  RatInputs bad = pdf1d_inputs();
  bad.comm.alpha_write = 2.0;
  EXPECT_THROW(predict(bad, mhz(100)), std::invalid_argument);
  EXPECT_THROW(predict_all(bad), std::invalid_argument);
}

TEST(Throughput, RejectsNaNClock) {
  // NaN compares false with everything, so it must fail the guard's
  // "clock > 0" test rather than pass a "clock <= 0" one.
  try {
    (void)predict(pdf1d_inputs(), std::numeric_limits<double>::quiet_NaN());
    ADD_FAILURE() << "predict accepted a NaN clock";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "predict: non-positive clock");
  }
}

// Monotonicity sweep: speedup must rise monotonically with throughput_proc
// and with each alpha, at any clock.
class ThroughputMonotonic : public ::testing::TestWithParam<double> {};

TEST_P(ThroughputMonotonic, SpeedupIncreasesWithProcRate) {
  RatInputs in = pdf2d_inputs();
  const double f = GetParam();
  double prev = 0.0;
  for (double tp : {1.0, 2.0, 8.0, 24.0, 48.0, 96.0, 1000.0}) {
    in.comp.throughput_ops_per_cycle = tp;
    const double s = predict(in, f).speedup_sb;
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST_P(ThroughputMonotonic, SpeedupSaturatesAtCommunicationBound) {
  RatInputs in = pdf2d_inputs();
  const double f = GetParam();
  in.comp.throughput_ops_per_cycle = 1e12;  // computation free
  const auto p = predict(in, f);
  const double bound = in.software.tsoft_sec /
                       (static_cast<double>(in.software.n_iterations) *
                        p.t_comm_sec);
  EXPECT_NEAR(p.speedup_sb, bound, 1e-6 * bound);
}

INSTANTIATE_TEST_SUITE_P(Clocks, ThroughputMonotonic,
                         ::testing::Values(mhz(75), mhz(100), mhz(150),
                                           mhz(250)));

}  // namespace
}  // namespace rat::core
