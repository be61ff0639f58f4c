#include "core/composition.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>

#include "core/streaming.hpp"
#include "core/units.hpp"
#include "rcsim/executor.hpp"
#include "rcsim/multiboard.hpp"
#include "rcsim/staged_executor.hpp"

namespace rat::core {
namespace {

StageSpec stage(double ops_per_element, double tsoft,
                std::size_t elements = 512, std::size_t n_iter = 100) {
  StageSpec s;
  s.inputs.name = "stage";
  s.inputs.dataset = {elements, elements, 4.0};
  s.inputs.comm = {1e9, 0.5, 0.5};
  s.inputs.comp = {ops_per_element, 10.0, {mhz(100)}};
  s.inputs.software = {tsoft, n_iter};
  s.fclock_hz = mhz(100);
  return s;
}

TEST(Composite, SingleStageMatchesPlainPrediction) {
  const StageSpec s = stage(1000, 2.0);
  const auto comp = predict_composite({s}, CompositionMode::kSequential);
  const auto plain = predict(s.inputs, s.fclock_hz);
  EXPECT_NEAR(comp.t_total_sec, plain.t_rc_sb_sec, 1e-12);
  EXPECT_NEAR(comp.speedup, plain.speedup_sb, 1e-9);
  EXPECT_EQ(comp.bottleneck_stage, 0u);
}

TEST(Composite, SequentialSumsStages) {
  const StageSpec a = stage(1000, 2.0);
  const StageSpec b = stage(3000, 5.0);
  const auto comp = predict_composite({a, b}, CompositionMode::kSequential);
  const auto pa = predict(a.inputs, a.fclock_hz);
  const auto pb = predict(b.inputs, b.fclock_hz);
  EXPECT_NEAR(comp.t_total_sec, pa.t_rc_sb_sec + pb.t_rc_sb_sec, 1e-12);
  EXPECT_NEAR(comp.tsoft_total_sec, 7.0, 1e-12);
  EXPECT_EQ(comp.bottleneck_stage, 1u);
  EXPECT_GT(comp.bottleneck_share, 0.5);
}

TEST(Composite, OnChipHandoffSkipsIntermediateTransfers) {
  StageSpec a = stage(1000, 2.0);
  const StageSpec b = stage(1000, 2.0);
  const auto with_bus =
      predict_composite({a, b}, CompositionMode::kSequential);
  a.output_stays_on_chip = true;
  const auto on_chip =
      predict_composite({a, b}, CompositionMode::kSequential);
  EXPECT_LT(on_chip.t_total_sec, with_bus.t_total_sec);
  // Exactly one read (stage a's) and one write (stage b's) are saved.
  EXPECT_DOUBLE_EQ(on_chip.stages[0].t_read_sec, 0.0);
  EXPECT_DOUBLE_EQ(on_chip.stages[1].t_write_sec, 0.0);
  EXPECT_GT(on_chip.stages[0].t_write_sec, 0.0);
  EXPECT_GT(on_chip.stages[1].t_read_sec, 0.0);
}

TEST(Composite, FinalStageMustReturnResults) {
  StageSpec a = stage(1000, 2.0);
  a.output_stays_on_chip = true;
  EXPECT_THROW(predict_composite({a}, CompositionMode::kSequential),
               std::invalid_argument);
}

TEST(Composite, PipelinedBoundedBySlowestStage) {
  const StageSpec a = stage(1000, 2.0);
  const StageSpec b = stage(4000, 2.0);
  const StageSpec c = stage(2000, 2.0);
  const auto pipe =
      predict_composite({a, b, c}, CompositionMode::kPipelined);
  const auto seq =
      predict_composite({a, b, c}, CompositionMode::kSequential);
  EXPECT_LT(pipe.t_total_sec, seq.t_total_sec);
  // Steady state: one block every t_stage(b); fill adds one pass.
  const double worst = pipe.stages[1].t_stage_sec;
  const double fill = pipe.stages[0].t_stage_sec + worst +
                      pipe.stages[2].t_stage_sec;
  EXPECT_NEAR(pipe.t_total_sec, fill + 99.0 * worst, 1e-12);
  EXPECT_EQ(pipe.bottleneck_stage, 1u);
}

TEST(Composite, PipelinedApproachesSlowestStageShare) {
  const StageSpec a = stage(1000, 2.0, 512, 10000);
  const StageSpec b = stage(4000, 2.0, 512, 10000);
  const auto pipe = predict_composite({a, b}, CompositionMode::kPipelined);
  EXPECT_NEAR(pipe.bottleneck_share, 1.0, 1e-3);
}

TEST(Composite, Validation) {
  EXPECT_THROW(predict_composite({}, CompositionMode::kSequential),
               std::invalid_argument);
  StageSpec a = stage(1000, 2.0, 512, 100);
  StageSpec b = stage(1000, 2.0, 512, 200);  // Niter mismatch
  EXPECT_THROW(predict_composite({a, b}, CompositionMode::kSequential),
               std::invalid_argument);
  StageSpec c = stage(1000, 2.0);
  c.fclock_hz = 0.0;
  EXPECT_THROW(predict_composite({c}, CompositionMode::kSequential),
               std::invalid_argument);
}

TEST(ClockGuards, NaNClockIsNonPositive) {
  // NaN compares false with everything, so each "non-positive clock"
  // guard tests !(clock > 0) and rejects it with its usual message.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const rcsim::Link link("clean", 1e9, rcsim::LinkDirection{0.0, 1e9, 0.0},
                         rcsim::LinkDirection{0.0, 1e9, 0.0});
  rcsim::Workload work;
  work.n_iterations = 1;
  work.io = [](std::size_t) {
    rcsim::IterationIo io;
    io.input_chunks_bytes = {100};
    io.output_chunks_bytes = {100};
    return io;
  };
  work.cycles = [](std::size_t) { return std::uint64_t{10}; };
  rcsim::ExecutionConfig config;
  config.fclock_hz = nan;
  rcsim::StagedWorkload staged;
  staged.stages = {rcsim::StageWorkload{1000, 500, 100, false}};
  staged.n_iterations = 1;
  rcsim::MultiBoardWorkload boards;
  boards.boards = {rcsim::BoardShare{100, 100, 10}};
  boards.n_iterations = 1;
  StageSpec nan_stage = stage(1000, 2.0);
  nan_stage.fclock_hz = nan;

  struct Case {
    const char* what;
    std::function<void()> call;
  };
  const Case cases[] = {
      {"execute: non-positive clock",
       [&] { (void)rcsim::execute(work, link, config); }},
      {"execute_staged: non-positive clock",
       [&] { (void)rcsim::execute_staged(staged, link, config); }},
      {"execute_multiboard: non-positive clock",
       [&] { (void)rcsim::execute_multiboard(boards, link, nan); }},
      {"predict_composite: non-positive clock",
       [&] {
         (void)predict_composite({nan_stage}, CompositionMode::kSequential);
       }},
      {"predict_scaling: non-positive clock",
       [&] { (void)predict_scaling(pdf1d_inputs(), nan, 2); }},
      {"predict_streaming: non-positive clock",
       [&] { (void)predict_streaming(pdf1d_inputs(), nan); }},
  };
  for (const Case& c : cases) {
    try {
      c.call();
      ADD_FAILURE() << "accepted a NaN clock: " << c.what;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), c.what);
    }
  }
}

TEST(Composite, TableRendersAllStages) {
  const auto comp = predict_composite({stage(1000, 2.0), stage(2000, 3.0)},
                                      CompositionMode::kSequential);
  const auto t = comp.to_table();
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.cell(1, 0), "1 *");  // bottleneck marker
}

// ---------------------------------------------------------------- scaling
TEST(Scaling, SingleBoardMatchesDoubleBufferedPrediction) {
  const RatInputs in = pdf2d_inputs();
  const auto curve = predict_scaling(in, mhz(150), 1);
  ASSERT_EQ(curve.size(), 1u);
  const auto p = predict(in, mhz(150));
  EXPECT_NEAR(curve[0].t_rc_sec, p.t_rc_db_sec, 1e-12);
  EXPECT_DOUBLE_EQ(curve[0].efficiency, 1.0);
}

TEST(Scaling, ComputeBoundAppScalesThenSaturates) {
  // 2-D PDF at 150 MHz: 97% compute, so scaling is near-linear early; the
  // shared-bus communication bound caps it near 34 boards
  // (tcomp/tcomm = 5.59E-2 / 1.65E-3).
  const RatInputs in = pdf2d_inputs();
  const auto curve = predict_scaling(in, mhz(150), 64);
  EXPECT_GT(curve[1].speedup, 1.9 * curve[0].speedup);   // 2 boards ~2x
  EXPECT_GT(curve[3].speedup, 3.6 * curve[0].speedup);   // 4 boards ~4x
  // Far out, the shared bus caps everything:
  const double cap = in.software.tsoft_sec /
                     (400.0 * curve[0].t_comm_sec);
  EXPECT_LT(curve[63].speedup, cap * 1.001);
  EXPECT_NEAR(curve[63].speedup, curve[47].speedup, 1e-9);  // saturated
  // Efficiency decays past the knee.
  EXPECT_LT(curve[63].efficiency, 0.6);
  EXPECT_GT(curve[1].efficiency, 0.95);
}

TEST(Scaling, SpeedupMonotoneNonDecreasingInBoards) {
  for (const RatInputs& in : {pdf1d_inputs(), pdf2d_inputs(), md_inputs()}) {
    const auto curve = predict_scaling(in, mhz(100), 16);
    for (std::size_t i = 1; i < curve.size(); ++i)
      EXPECT_GE(curve[i].speedup, curve[i - 1].speedup - 1e-9) << in.name;
  }
}

TEST(Scaling, CommBoundAppGainsNothing) {
  RatInputs in = pdf1d_inputs();
  in.comm.alpha_write = 0.001;  // bus-starved
  const auto curve = predict_scaling(in, mhz(150), 8);
  EXPECT_NEAR(curve[7].speedup, curve[0].speedup, 1e-9);
  EXPECT_LT(curve[7].efficiency, 0.2);
}

TEST(Scaling, MaxUsefulFpgasFindsKnee) {
  // 2-D PDF saturates at ~34 boards, so the 90%-efficiency knee sits well
  // inside the 64-board search window.
  const RatInputs in = pdf2d_inputs();
  const int k = max_useful_fpgas(in, mhz(150), 0.9, 64);
  EXPECT_GT(k, 1);
  EXPECT_LT(k, 64);
  // A tighter efficiency bar never admits more boards.
  EXPECT_LE(max_useful_fpgas(in, mhz(150), 0.99, 64), k);
  // MD's tiny communication keeps >50% efficiency beyond 64 boards: the
  // search saturates at its limit.
  EXPECT_EQ(max_useful_fpgas(md_inputs(), mhz(100), 0.5, 64), 64);
  EXPECT_THROW(max_useful_fpgas(in, mhz(150), 0.0), std::invalid_argument);
  EXPECT_THROW(max_useful_fpgas(in, mhz(150), 1.5), std::invalid_argument);
}

TEST(Scaling, Validation) {
  EXPECT_THROW(predict_scaling(pdf1d_inputs(), 0.0, 4),
               std::invalid_argument);
  EXPECT_THROW(predict_scaling(pdf1d_inputs(), mhz(100), 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace rat::core
