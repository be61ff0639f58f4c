// Every positivity guard goes through util::require_positive, which
// rejects a NaN, and every range or lower-bound guard is written so that
// a NaN fails it: each row feeds a NaN to one public entry point and
// expects that guard's own exception type and message.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/convolution.hpp"
#include "apps/md.hpp"
#include "apps/pdf1d.hpp"
#include "apps/pdf2d.hpp"
#include "apps/strmatch.hpp"
#include "apps/workload.hpp"
#include "core/calibration.hpp"
#include "core/composition.hpp"
#include "core/devtime.hpp"
#include "core/montecarlo.hpp"
#include "core/parameters.hpp"
#include "core/power.hpp"
#include "core/precision.hpp"
#include "core/sensitivity.hpp"
#include "core/streaming.hpp"
#include "core/throughput.hpp"
#include "core/units.hpp"
#include "core/validation.hpp"
#include "fixedpoint/lut.hpp"
#include "rcsim/interconnect.hpp"
#include "rcsim/pipeline.hpp"
#include "rcsim/resources.hpp"

namespace rat {
namespace {

TEST(PositivityGuards, NaNIsNonPositive) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const core::ThroughputPrediction pred =
      core::predict(core::pdf1d_inputs(), core::mhz(100));
  core::ThroughputPrediction nan_trc = pred;
  nan_trc.t_rc_sb_sec = nan;
  core::StreamingPrediction stream =
      core::predict_streaming(core::pdf1d_inputs(), core::mhz(100));
  stream.sustained_rate = nan;
  const rcsim::LinkDirection dir{0.0, 1e9, 0.0};
  const fx::Format fmt{18, 15, true};
  const fx::FixedKernel kernel = [](fx::Format) {
    return std::vector<double>{0.5};
  };
  const std::vector<double> reference{0.5};

  struct Case {
    const char* what;
    bool logic_error;  ///< std::logic_error itself, not invalid_argument
    std::function<void()> call;
  };
  const Case cases[] = {
      {"min_index_bits_for: tolerance <= 0", false,
       [&] {
         (void)fx::min_index_bits_for([](double x) { return x; }, 0.0, 1.0,
                                      fmt, fmt, nan, 4, 5);
       }},
      {"Link: documented_bw must be positive", false,
       [&] { (void)rcsim::Link("nan", nan, dir, dir); }},
      {"Link: sustained_bw must be positive", false,
       [&] {
         (void)rcsim::Link("nan", 1e9, dir, rcsim::LinkDirection{0.0, nan, 0});
       }},
      {"PipelineSpec: ops_per_item <= 0", false,
       [&] {
         rcsim::PipelineSpec spec;
         spec.ops_per_item = nan;
         spec.validate();
       }},
      {"gaussian_mixture_1d: non-positive weights", false,
       [&] {
         (void)apps::gaussian_mixture_1d(4, {{0.5, 0.1, nan}}, 1);
       }},
      {"ConvConfig: bytes_per_pixel <= 0", false,
       [&] { apps::ConvConfig{.bytes_per_pixel = nan}.validate(); }},
      {"MdConfig: cutoff <= 0", false,
       [&] { apps::MdConfig{.cutoff = nan}.validate(); }},
      {"MdConfig: epsilon <= 0", false,
       [&] { apps::MdConfig{.epsilon = nan}.validate(); }},
      {"MdConfig: sigma_lj <= 0", false,
       [&] { apps::MdConfig{.sigma_lj = nan}.validate(); }},
      {"MdConfig: dt <= 0", false,
       [&] { apps::MdConfig{.dt = nan}.validate(); }},
      {"estimate_power: non-positive tsoft", false,
       [&] { (void)core::estimate_power({}, pred, nan); }},
      {"estimate_power: non-positive tRC", false,
       [&] { (void)core::estimate_power({}, nan_trc, 1.0); }},
      {"break_even_speedup_for_energy: non-positive power", false,
       [&] { (void)core::break_even_speedup_for_energy(nan); }},
      {"break_even_speedup_for_energy: non-positive power", false,
       [&] {
         (void)core::break_even_speedup_for_energy(100.0, {.busy_watts = nan});
       }},
      {"fit_link_direction: non-positive time", false,
       [&] {
         const core::TransferSample samples[] = {{1024, nan}, {2048, 1e-3}};
         (void)core::fit_link_direction(samples);
       }},
      // An infinite time passes the time guard (inf > 0); the fitted
      // per-byte cost is then inf - inf, a NaN.
      {"fit_link_direction: non-positive per-byte cost; data does not fit "
       "the latency+bandwidth model",
       false,
       [&] {
         const core::TransferSample samples[] = {{1024, inf}, {2048, 1e-3}};
         (void)core::fit_link_direction(samples);
       }},
      {"StreamingPrediction: zero sustained rate", true,
       [&] { (void)stream.time_for(1000); }},
      {"speedup_for: non-positive tsoft", false,
       [&] { (void)stream.speedup_for(1000, nan); }},
      {"bytes_per_element: bad channel word", false,
       [&] { (void)core::format_bytes_per_element(fmt, nan); }},
      {"run_precision_test: tolerance <= 0", false,
       [&] {
         (void)core::run_precision_test(
             kernel, reference,
             {.max_error_percent = nan, .min_total_bits = 8,
              .max_total_bits = 9});
       }},
      {"break_even: non-positive tsoft", false,
       [&] { (void)core::break_even(pred, nan, {}); }},
      {"break_even: bad economics inputs", false,
       [&] { (void)core::break_even(pred, 1.0, {.months_horizon = nan}); }},
      {"required_speedup: non-positive tsoft", false,
       [&] { (void)core::required_speedup(nan, {}); }},
      {"measured_from_totals: non-positive total", false,
       [&] {
         (void)core::measured_from_totals(core::mhz(100), 0.1, 0.1, nan, 1,
                                          1.0);
       }},
      {"measured_from_totals: non-positive tsoft", false,
       [&] {
         (void)core::measured_from_totals(core::mhz(100), 0.1, 0.1, 0.2, 1,
                                          nan);
       }},
      // Range guards.
      {"Pdf1dConfig: bandwidth outside (0,1)", false,
       [&] { apps::Pdf1dConfig{.bandwidth = nan}.validate(); }},
      {"Pdf2dConfig: bandwidth outside (0,1)", false,
       [&] { apps::Pdf2dConfig{.bandwidth = nan}.validate(); }},
      {"ResourceTracker: fill limit out of (0,1]", false,
       [&] { (void)rcsim::ResourceTracker({}, nan); }},
      {"max_useful_fpgas: bad efficiency bound", false,
       [&] {
         (void)core::max_useful_fpgas(core::md_inputs(), core::mhz(100), nan);
       }},
      {"InputDistribution::normal: bad parameters", false,
       [&] { (void)core::InputDistribution::normal(0.5, nan, 0.0, 1.0); }},
      {"particle_box: bad box/temperature", false,
       [&] { (void)apps::particle_box(4, 1.0, nan, 1); }},
      {"particle_box: bad box/temperature", false,
       [&] { (void)apps::particle_box(4, nan, 1.0, 1); }},
      {"tornado: fraction outside (0,1)", false,
       [&] { (void)core::tornado(core::pdf1d_inputs(), core::mhz(100), nan); }},
      {"Link: jitter fraction out of [0,1)", false,
       [&] { rcsim::Link("nan", 1e9, dir, dir).set_jitter(nan); }},
      {"random_text: plant_rate outside [0,1]", false,
       [&] { (void)apps::random_text(16, {.patterns = {"ab"}}, nan, 1); }},
      // Lower-bound guards.
      {"break_even: bad economics inputs", false,
       [&] {
         (void)core::break_even(pred, 1.0, {.development_hours = nan});
       }},
      {"break_even: bad economics inputs", false,
       [&] { (void)core::break_even(pred, 1.0, {.runs_per_month = nan}); }},
      {"Link: negative overhead", false,
       [&] {
         (void)rcsim::Link("nan", 1e9, rcsim::LinkDirection{nan, 1e9, 0.0},
                           dir);
       }},
      {"Link: negative overhead", false,
       [&] {
         (void)rcsim::Link("nan", 1e9, dir,
                           rcsim::LinkDirection{0.0, 1e9, nan});
       }},
      {"PipelineSpec: II < 1", false,
       [&] {
         rcsim::PipelineSpec spec;
         spec.initiation_interval = nan;
         spec.validate();
       }},
      {"PipelineSpec: negative stall", false,
       [&] {
         rcsim::PipelineSpec spec;
         spec.stall_per_item = nan;
         spec.validate();
       }},
  };
  for (const Case& c : cases) {
    try {
      c.call();
      ADD_FAILURE() << "accepted a NaN: " << c.what;
    } catch (const std::invalid_argument& e) {
      EXPECT_FALSE(c.logic_error) << c.what;
      EXPECT_STREQ(e.what(), c.what);
    } catch (const std::logic_error& e) {
      EXPECT_TRUE(c.logic_error) << c.what;
      EXPECT_STREQ(e.what(), c.what);
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.what << ": threw " << e.what();
    }
  }
}

TEST(PositivityGuards, RequiredSpeedupHasNoAnswerForNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(core::required_speedup(158.8, {.development_hours = 200.0,
                                              .runs_per_month = nan}));
}

}  // namespace
}  // namespace rat
