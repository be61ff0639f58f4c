// Property suite pinning the per-point identity contract: for every
// worksheet, predict(), predict_unchecked() and a WindowPredictions fill
// produce byte-identical predictions — and every consumer that evaluates
// many points (Monte Carlo, sweeps, tornado, the quantized sweep, the
// explorer's windows) returns exactly what a plain loop of predict()
// calls returns, at any thread count, with identical validation
// diagnostics. The parallel entry points (the explorer, run_monte_carlo,
// io::run_batch) are checked at 1, 2, 4 and 7 threads: the explorer
// against the serial run_methodology loop, the others against their
// 1-thread run.
//
// Comparisons are memcmp over the raw double bit patterns, not
// EXPECT_DOUBLE_EQ: the contract is identity, not closeness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/designspace.hpp"
#include "core/evaluation.hpp"
#include "core/methodology.hpp"
#include "core/montecarlo.hpp"
#include "core/parameters.hpp"
#include "core/precision.hpp"
#include "core/sensitivity.hpp"
#include "core/throughput.hpp"
#include "core/units.hpp"
#include "explore/explorer.hpp"
#include "io/batch.hpp"
#include "rcsim/device.hpp"
#include "util/rng.hpp"

namespace rat::core {
namespace {

// ThroughputPrediction is thirteen doubles — no padding, so memcmp over
// the whole struct is exact per-field bit comparison.
static_assert(sizeof(ThroughputPrediction) == 13 * sizeof(double));

::testing::AssertionResult same_bits(const ThroughputPrediction& a,
                                     const ThroughputPrediction& b) {
  if (std::memcmp(&a, &b, sizeof(ThroughputPrediction)) == 0)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "predictions differ: speedup_sb " << a.speedup_sb << " vs "
         << b.speedup_sb << ", t_comm " << a.t_comm_sec << " vs "
         << b.t_comm_sec;
}

::testing::AssertionResult same_bits(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0)
    return ::testing::AssertionFailure() << "columns differ bitwise";
  return ::testing::AssertionSuccess();
}

/// The three case-study worksheets plus uniformly fuzzed in-domain
/// mutants — every field Eqs. 1-11 read is randomized across several
/// orders of magnitude, so the kernel is exercised far from the paper's
/// operating points.
std::vector<RatInputs> fuzzed_worksheets(std::size_t n_mutants,
                                         std::uint64_t seed) {
  std::vector<RatInputs> ws = {pdf1d_inputs(), pdf2d_inputs(), md_inputs()};
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n_mutants; ++i) {
    RatInputs in = ws[i % 3];
    in.dataset.elements_in =
        static_cast<std::size_t>(rng.uniform(1.0, 1e7));
    in.dataset.elements_out =
        static_cast<std::size_t>(rng.uniform(1.0, 1e7));
    in.dataset.bytes_per_element = rng.uniform(1.0, 16.0);
    in.comm.ideal_bw_bytes_per_sec = rng.uniform(1e6, 1e10);
    in.comm.alpha_write = rng.uniform(0.01, 1.0);
    in.comm.alpha_read = rng.uniform(0.01, 1.0);
    in.comp.ops_per_element = rng.uniform(0.1, 1e4);
    in.comp.throughput_ops_per_cycle = rng.uniform(0.1, 100.0);
    in.software.n_iterations =
        static_cast<std::size_t>(rng.uniform(1.0, 1e6));
    in.software.tsoft_sec = rng.uniform(1e-3, 1e4);
    ws.push_back(std::move(in));
  }
  return ws;
}

double fuzz_clock(util::Rng& rng) { return rng.uniform(1e6, 5e8); }

// ---- kernel-level identity -------------------------------------------------

DesignCandidate candidate_of(const RatInputs& inputs, double fclock) {
  DesignCandidate c;
  c.inputs = inputs;
  c.decision_clock_hz = fclock;
  return c;
}

TEST(BatchIdentityKernel, CaseStudiesAndFuzzedMutants) {
  const auto worksheets = fuzzed_worksheets(200, 0xB17B17);
  util::Rng rng(42);
  std::vector<DesignCandidate> candidates;
  std::vector<ThroughputPrediction> reference;
  for (const auto& in : worksheets) {
    const double fclock = fuzz_clock(rng);
    const ThroughputPrediction ref = predict(in, fclock);
    EXPECT_TRUE(same_bits(ref, predict_unchecked(in, fclock)));
    reference.push_back(ref);
    candidates.push_back(candidate_of(in, fclock));
  }
  WindowPredictions window;
  window.fill(candidates, 0, candidates.size());
  ASSERT_EQ(window.predictions.size(), worksheets.size());
  for (std::size_t i = 0; i < worksheets.size(); ++i) {
    EXPECT_FALSE(window.errors[i]) << "point " << i;
    EXPECT_TRUE(same_bits(reference[i], window.predictions[i]))
        << "point " << i;
  }
}

TEST(BatchIdentityKernel, FillValidatesLikePredict) {
  RatInputs bad = pdf1d_inputs();
  bad.comm.alpha_write = 0.0;
  const std::vector<DesignCandidate> candidates = {
      candidate_of(bad, core::mhz(100)), candidate_of(pdf1d_inputs(), 0.0),
      candidate_of(pdf1d_inputs(), core::mhz(100))};
  WindowPredictions window;
  window.fill(candidates, 0, candidates.size());
  // Each invalid candidate carries the exception predict() throws for it.
  for (std::size_t k = 0; k < 2; ++k) {
    ASSERT_TRUE(window.errors[k]) << k;
    try {
      std::rethrow_exception(window.errors[k]);
    } catch (const std::invalid_argument& e) {
      try {
        (void)predict(candidates[k].inputs, candidates[k].decision_clock_hz);
        ADD_FAILURE() << "predict() accepted candidate " << k;
      } catch (const std::invalid_argument& ref) {
        EXPECT_STREQ(e.what(), ref.what());
      }
    }
  }
  EXPECT_FALSE(window.errors[2]);
  EXPECT_TRUE(same_bits(predict(pdf1d_inputs(), core::mhz(100)),
                        window.predictions[2]));
  // batch.prediction() past the filled range is an error, not a stale read.
  EXPECT_TRUE(same_bits(window.predictions[2], window.batch.prediction(2)));
  EXPECT_THROW((void)window.batch.prediction(3), std::out_of_range);
}

TEST(BatchIdentityKernel, ClearKeepsIdentityAcrossReuse) {
  // A reused window must not leak state between fills: a refill gives the
  // same bits as a fresh one.
  const auto worksheets = fuzzed_worksheets(37, 0xF00D);
  util::Rng rng(11);
  std::vector<DesignCandidate> candidates;
  for (const auto& in : worksheets)
    candidates.push_back(candidate_of(in, fuzz_clock(rng)));
  WindowPredictions reused;
  for (std::size_t pass = 0; pass < 3; ++pass) {
    // Shrinking fills, each starting one candidate later.
    const std::size_t n = candidates.size() - 2 * pass;
    reused.fill(candidates, pass, n);
    ASSERT_EQ(reused.predictions.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      const DesignCandidate& c = candidates[pass + k];
      EXPECT_TRUE(same_bits(predict(c.inputs, c.decision_clock_hz),
                            reused.predictions[k]))
          << "pass=" << pass << " k=" << k;
    }
  }
}

// ---- Monte Carlo -----------------------------------------------------------

/// A plain per-sample Monte-Carlo loop, kept as an independent reference:
/// per sample, draw the six perturbations in order from the chunk's
/// stream, copy the worksheet, run the checked scalar predict().
/// run_monte_carlo must reproduce it bit-for-bit.
struct ScalarMcReference {
  std::vector<double> s_sb, s_db, t_rc, t_comm, t_comp;
  std::size_t meets_goal = 0;
};

ScalarMcReference scalar_mc_reference(const RatInputs& inputs,
                                      const UncertaintyModel& model,
                                      std::size_t n, double goal_speedup,
                                      std::uint64_t seed) {
  constexpr std::size_t kChunkSamples = 1024;  // run_monte_carlo's chunk
  ScalarMcReference r;
  const double base_clock = inputs.comp.fclock_hz.front();
  for (std::size_t lo = 0; lo < n; lo += kChunkSamples) {
    const std::size_t count = std::min(kChunkSamples, n - lo);
    util::Rng rng(seed + lo / kChunkSamples);
    for (std::size_t i = 0; i < count; ++i) {
      const double aw = std::min(
          1.0, sample(model.alpha_write, inputs.comm.alpha_write, rng));
      const double ar = std::min(
          1.0, sample(model.alpha_read, inputs.comm.alpha_read, rng));
      const double ops =
          sample(model.ops_per_element, inputs.comp.ops_per_element, rng);
      const double tp = sample(model.throughput_proc,
                               inputs.comp.throughput_ops_per_cycle, rng);
      const double tsoft =
          sample(model.tsoft_sec, inputs.software.tsoft_sec, rng);
      const double fclock = sample(model.fclock_hz, base_clock, rng);
      RatInputs sampled = inputs;
      sampled.comm.alpha_write = aw;
      sampled.comm.alpha_read = ar;
      sampled.comp.ops_per_element = ops;
      sampled.comp.throughput_ops_per_cycle = tp;
      sampled.software.tsoft_sec = tsoft;
      const auto p = predict(sampled, fclock);
      r.s_sb.push_back(p.speedup_sb);
      r.s_db.push_back(p.speedup_db);
      r.t_rc.push_back(p.t_rc_sb_sec);
      r.t_comm.push_back(p.t_comm_sec);
      r.t_comp.push_back(p.t_comp_sec);
      if (goal_speedup > 0.0 && p.speedup_sb >= goal_speedup)
        ++r.meets_goal;
    }
  }
  return r;
}

TEST(BatchIdentityMonteCarlo, MatchesScalarReferenceAtEveryThreadCount) {
  const RatInputs in = md_inputs();
  const auto model = UncertaintyModel::typical(in);
  constexpr std::size_t kN = 5000;  // 4 full chunks + a partial tail chunk
  constexpr double kGoal = 10.0;
  constexpr std::uint64_t kSeed = 99;

  auto ref = scalar_mc_reference(in, model, kN, kGoal, kSeed);
  std::vector<double> ref_sorted = ref.s_sb;
  std::sort(ref_sorted.begin(), ref_sorted.end());

  for (std::size_t threads : {1u, 2u, 8u}) {
    const auto r = run_monte_carlo(in, model, kN, kGoal, kSeed, threads);
    EXPECT_TRUE(same_bits(ref_sorted, r.speedup_sb_samples))
        << threads << " threads";
    EXPECT_EQ(r.probability_of_goal,
              static_cast<double>(ref.meets_goal) / static_cast<double>(kN))
        << threads << " threads";
    // Percentiles are derived from the sorted columns; spot-check one
    // column's digest bitwise through the public result.
    std::vector<double> t_comm = ref.t_comm;
    const auto pc = percentiles_of(t_comm);
    EXPECT_EQ(pc.p10, r.t_comm_sec.p10);
    EXPECT_EQ(pc.p50, r.t_comm_sec.p50);
    EXPECT_EQ(pc.p90, r.t_comm_sec.p90);
    EXPECT_EQ(pc.mean, r.t_comm_sec.mean);
  }
}

TEST(BatchIdentityMonteCarlo, BadBandRaisesTheScalarDiagnostic) {
  // A normal band sitting entirely below zero produces out-of-domain
  // samples; the reference validates every perturbed worksheet, so
  // run_monte_carlo must surface the identical std::invalid_argument
  // instead of passing unvalidated points to predict_unchecked().
  const RatInputs in = pdf1d_inputs();
  auto model = UncertaintyModel::typical(in);
  model.ops_per_element = InputDistribution::normal(-5.0, 0.1, -10.0, -1.0);
  for (std::size_t threads : {1u, 8u}) {
    EXPECT_THROW(run_monte_carlo(in, model, 256, 0.0, 7, threads),
                 std::invalid_argument)
        << threads << " threads";
  }
}

// ---- sweeps and tornado ----------------------------------------------------

TEST(BatchIdentitySweep, MatchesPerPointPredict) {
  const RatInputs in = pdf2d_inputs();
  const double fclock = core::mhz(100);
  const ParamSetter set = [](RatInputs& w, double v) {
    w.comp.throughput_ops_per_cycle = v;
  };
  std::vector<double> values;
  util::Rng rng(23);
  for (int i = 0; i < 1300; ++i) values.push_back(rng.uniform(0.5, 64.0));

  std::vector<ThroughputPrediction> reference;
  for (double v : values) {
    RatInputs w = in;
    set(w, v);
    reference.push_back(predict(w, fclock));
  }
  const auto out = sweep_parameter(in, set, values, fclock);
  ASSERT_EQ(out.size(), reference.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_TRUE(same_bits(reference[i], out[i])) << "i=" << i;
}

TEST(BatchIdentitySweep, OutOfDomainValueRaisesTheScalarDiagnostic) {
  const RatInputs in = pdf1d_inputs();
  const ParamSetter set = [](RatInputs& w, double v) {
    w.comm.alpha_write = v;
  };
  const std::vector<double> values = {0.5, -1.0, 0.7};
  EXPECT_THROW(sweep_parameter(in, set, values, core::mhz(100)),
               std::invalid_argument);
}

TEST(BatchIdentityTornado, MatchesPerPointPredict) {
  const RatInputs in = md_inputs();
  const double fclock = core::mhz(75);
  const double fraction = 0.2;
  const auto entries = tornado(in, fclock, fraction);
  ASSERT_EQ(entries.size(), 6u);
  // Each entry's range must be exactly the per-point predictions of the
  // perturbed worksheets (tornado predicts lo/hi pairs param-major).
  for (const auto& e : entries) {
    SCOPED_TRACE(e.parameter);
    RatInputs lo_in = in, hi_in = in;
    const auto apply = [&](RatInputs& w, double scale) {
      if (e.parameter == "alpha_write")
        w.comm.alpha_write = std::min(w.comm.alpha_write * scale, 1.0);
      else if (e.parameter == "alpha_read")
        w.comm.alpha_read = std::min(w.comm.alpha_read * scale, 1.0);
      else if (e.parameter == "ops_per_element")
        w.comp.ops_per_element *= scale;
      else if (e.parameter == "throughput_proc")
        w.comp.throughput_ops_per_cycle *= scale;
      else if (e.parameter == "ideal_bandwidth")
        w.comm.ideal_bw_bytes_per_sec *= scale;
      else if (e.parameter == "bytes_per_element")
        w.dataset.bytes_per_element *= scale;
      else
        FAIL() << "unknown tornado parameter " << e.parameter;
    };
    apply(lo_in, 1.0 - fraction);
    apply(hi_in, 1.0 + fraction);
    const double s_lo = predict(lo_in, fclock).speedup_sb;
    const double s_hi = predict(hi_in, fclock).speedup_sb;
    EXPECT_EQ(e.speedup_low, std::min(s_lo, s_hi));
    EXPECT_EQ(e.speedup_high, std::max(s_lo, s_hi));
  }
}

// ---- quantization sweep ----------------------------------------------------

TEST(BatchIdentitySweep, QuantizedThroughputSweepMatchesScalarLoop) {
  // The precision-test trade-off curve calls predict_unchecked() once per
  // format; each row must be bit-identical to the checked scalar loop
  // (copy worksheet, patch bytes/element, predict()).
  const RatInputs in = pdf1d_inputs();
  const double fclock = core::mhz(100);
  std::vector<fx::PrecisionChoice> sweep;
  for (int bits = 10; bits <= 24; ++bits)
    sweep.push_back({fx::Format{bits, bits - 1, true}, {}});

  const auto points = quantized_throughput_sweep(in, fclock, sweep);
  ASSERT_EQ(points.size(), sweep.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const double bytes = format_bytes_per_element(sweep[i].format);
    EXPECT_EQ(points[i].bytes_per_element, bytes);
    EXPECT_EQ(points[i].format.total_bits, sweep[i].format.total_bits);
    RatInputs w = in;
    w.dataset.bytes_per_element = bytes;
    EXPECT_TRUE(same_bits(predict(w, fclock), points[i].prediction))
        << "format " << sweep[i].format.total_bits << " bits";
  }
  // Channel rounding: 10..24 total bits on a 32-bit channel is 4 or 8
  // bytes, never a fraction.
  EXPECT_EQ(format_bytes_per_element(fx::Format{18, 17, true}), 4.0);
  EXPECT_EQ(format_bytes_per_element(fx::Format{33, 17, true}, 4.0), 8.0);
  EXPECT_EQ(format_bytes_per_element(fx::Format{12, 11, true}, 2.0), 2.0);
}

// ---- the explorer's windows against the serial loop ------------------------

DesignCandidate passing_candidate(const std::string& name) {
  DesignCandidate c;
  c.inputs = pdf1d_inputs();
  c.inputs.name = name;
  c.decision_clock_hz = core::mhz(100);
  return c;
}

DesignCandidate failing_candidate(const std::string& name) {
  DesignCandidate c = passing_candidate(name);
  // Tiny computational throughput: the throughput gate rejects it.
  c.inputs.comp.throughput_ops_per_cycle = 1e-6;
  return c;
}

DesignCandidate invalid_candidate(const std::string& name) {
  DesignCandidate c = passing_candidate(name);
  c.inputs.comm.alpha_write = 0.0;  // fails RatInputs::validate()
  return c;
}

Requirements lenient_requirements() {
  Requirements req;
  req.min_speedup = 0.001;
  req.precision = std::nullopt;
  return req;
}

const std::size_t kThreadCounts[] = {1, 2, 4, 7};

/// The explorer's outcome on @p candidates behind a design-space factory:
/// parallelism p is candidate p - 1, on a one-clock, one-format grid at
/// the candidates' 100 MHz decision clock.
MethodologyOutcome explore_list(const std::vector<DesignCandidate>& candidates,
                                const Requirements& req,
                                const rcsim::Device& device,
                                std::size_t threads) {
  DesignAxes axes;
  axes.parallelism.clear();
  for (std::size_t p = 1; p <= candidates.size(); ++p)
    axes.parallelism.push_back(p);
  axes.fclock_hz = {core::mhz(100)};
  axes.format_bits = {18};
  const CandidateFactory factory =
      [&candidates](const DesignPoint& p) -> std::optional<DesignCandidate> {
    return candidates[p.parallelism - 1];
  };
  explore::ExploreOptions opt;
  opt.n_threads = threads;
  return explore::explore_design_space_pruned(axes, factory, req, device, opt)
      .design.outcome;
}

TEST(BatchIdentityMethodology, InvalidCandidateAfterAcceptedIsNeverRaised) {
  // Figure-1 early exit: the serial loop stops at the first accepted
  // candidate, so a later invalid worksheet never surfaces. A parallel
  // explorer evaluates the whole window, but holds each candidate's error
  // until the in-order merge reaches it, so it answers the same.
  std::vector<DesignCandidate> candidates;
  candidates.push_back(failing_candidate("reject-me"));
  candidates.push_back(passing_candidate("accept-me"));
  candidates.push_back(invalid_candidate("never-reached"));
  const auto req = lenient_requirements();
  const auto device = rcsim::virtex4_lx100();
  MethodologyOutcome serial;
  ASSERT_NO_THROW(serial = run_methodology(candidates, req, device));
  ASSERT_TRUE(serial.accepted_index.has_value());
  EXPECT_EQ(*serial.accepted_index, 1u);
  for (const std::size_t threads : kThreadCounts) {
    MethodologyOutcome out;
    ASSERT_NO_THROW(out = explore_list(candidates, req, device, threads))
        << threads << " threads";
    EXPECT_TRUE(out.proceed);
    EXPECT_EQ(out.accepted_index, serial.accepted_index)
        << threads << " threads";
  }
}

TEST(BatchIdentityMethodology, InvalidCandidateBeforeAcceptedStillThrows) {
  std::vector<DesignCandidate> candidates;
  candidates.push_back(invalid_candidate("bad-first"));
  candidates.push_back(passing_candidate("good-second"));
  const auto req = lenient_requirements();
  const auto device = rcsim::virtex4_lx100();
  EXPECT_THROW(run_methodology(candidates, req, device),
               std::invalid_argument);
  for (const std::size_t threads : kThreadCounts)
    EXPECT_THROW(explore_list(candidates, req, device, threads),
                 std::invalid_argument)
        << threads << " threads";
}

TEST(BatchIdentityMethodology, WindowedRunMatchesSerialBitwise) {
  // 600 candidates exceed both the serial window (256) and every parallel
  // window, with the accepted design deep enough (index 517) that
  // several windows fill and merge before the early exit.
  std::vector<DesignCandidate> candidates;
  for (int i = 0; i < 600; ++i) {
    if (i == 517)
      candidates.push_back(passing_candidate("winner"));
    else
      candidates.push_back(failing_candidate("loser-" + std::to_string(i)));
  }
  const auto req = lenient_requirements();
  const auto device = rcsim::virtex4_lx100();
  const auto serial = run_methodology(candidates, req, device);
  EXPECT_TRUE(serial.proceed);
  ASSERT_TRUE(serial.accepted_index.has_value());
  EXPECT_EQ(*serial.accepted_index, 517u);
  for (const std::size_t threads : kThreadCounts) {
    const auto par = explore_list(candidates, req, device, threads);
    EXPECT_EQ(serial.proceed, par.proceed);
    EXPECT_EQ(serial.accepted_index, par.accepted_index);
    EXPECT_EQ(serial.last_reject, par.last_reject);
    ASSERT_EQ(serial.trace.size(), par.trace.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.trace.size(); ++i) {
      EXPECT_EQ(serial.trace[i].candidate_index, par.trace[i].candidate_index);
      EXPECT_EQ(serial.trace[i].candidate_name, par.trace[i].candidate_name);
      EXPECT_EQ(serial.trace[i].step, par.trace[i].step);
      EXPECT_EQ(serial.trace[i].passed, par.trace[i].passed);
      EXPECT_EQ(serial.trace[i].detail, par.trace[i].detail);
    }
    ASSERT_EQ(serial.predictions.size(), par.predictions.size());
    for (std::size_t i = 0; i < serial.predictions.size(); ++i)
      EXPECT_TRUE(same_bits(serial.predictions[i], par.predictions[i]))
          << threads << " threads, i=" << i;
  }
}

/// What a caller observes of one run: the outcome (trace, accepted index,
/// prediction bits), or the message of the exception that escaped.
template <typename Run>
std::string observed(Run run) {
  try {
    const MethodologyOutcome out = run();
    std::string s = out.render_trace();
    s += out.accepted_index ? "|accepted " + std::to_string(*out.accepted_index)
                            : std::string("|exhausted");
    for (const auto& p : out.predictions)
      s.append(reinterpret_cast<const char*>(&p), sizeof p);
    return s;
  } catch (const std::invalid_argument& e) {
    return std::string("threw: ") + e.what();
  }
}

TEST(BatchIdentityScan, InvalidCandidatesGiveOneOutcomeAtAnyThreadCount) {
  // Random candidate lists mixing rejected, accepted and invalid designs,
  // with invalid ones before and after the winner (often right after it,
  // in the same parallel window). The explorer's full-trace scan must
  // answer what the serial run_methodology loop answers at every thread
  // count, including which validation error escapes: each invalid kind
  // below has its own message.
  using Invalidate = void (*)(RatInputs&);
  const Invalidate kinds[] = {
      [](RatInputs& in) { in.dataset.elements_in = 0; },
      [](RatInputs& in) { in.dataset.bytes_per_element = 0.0; },
      [](RatInputs& in) { in.comm.alpha_write = 0.0; },
      [](RatInputs& in) { in.comm.alpha_read = 0.0; },
      [](RatInputs& in) { in.comp.ops_per_element = 0.0; },
      [](RatInputs& in) { in.software.tsoft_sec = 0.0; },
  };
  const auto req = lenient_requirements();
  const auto device = rcsim::virtex4_lx100();
  util::Rng rng(20261019);
  for (int iter = 0; iter < 60; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const std::size_t n = 1 + rng.uniform_index(60);
    const bool invalid_after_passing = rng.uniform() < 0.5;
    std::vector<DesignCandidate> candidates;
    bool after_passing = false;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string name = "c" + std::to_string(i);
      const double u = rng.uniform();
      if (u < 0.2 || (invalid_after_passing && after_passing)) {
        DesignCandidate c = passing_candidate(name);
        kinds[rng.uniform_index(std::size(kinds))](c.inputs);
        candidates.push_back(std::move(c));
        after_passing = false;
      } else if (u < 0.4) {
        candidates.push_back(passing_candidate(name));
        after_passing = true;
      } else {
        candidates.push_back(failing_candidate(name));
        after_passing = false;
      }
    }

    const std::string serial =
        observed([&] { return run_methodology(candidates, req, device); });
    for (const std::size_t threads : kThreadCounts)
      EXPECT_EQ(observed([&] {
                  return explore_list(candidates, req, device, threads);
                }),
                serial)
          << "explorer, " << threads << " threads";
  }
}

// ---- the other parallel entry points ---------------------------------------

template <typename T>
void append_bytes(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

/// What a caller observes of one Monte-Carlo run: every field of the
/// result as raw bytes, or the message of the exception that escaped.
std::string observed_monte_carlo(const RatInputs& in,
                                 const UncertaintyModel& model, std::size_t n,
                                 std::uint64_t seed, std::size_t threads) {
  try {
    const MonteCarloResult r = run_monte_carlo(in, model, n, 10.0, seed,
                                               threads);
    std::string s;
    append_bytes(s, r.n_samples);
    for (const Percentiles& p : {r.speedup_sb, r.speedup_db, r.t_rc_sb_sec,
                                 r.t_comm_sec, r.t_comp_sec})
      append_bytes(s, p);
    append_bytes(s, r.probability_of_goal);
    for (const double x : r.speedup_sb_samples) append_bytes(s, x);
    return s;
  } catch (const std::invalid_argument& e) {
    return std::string("threw: ") + e.what();
  }
}

TEST(BatchIdentityThreads, MonteCarloGivesOneResultAtAnyThreadCount) {
  // Seeded runs with sample counts on and off the 1,024-sample chunk
  // boundary, in three kinds. The typical bands stay in the model domain.
  // Rare bands let ops/element and tsoft dip to or below zero in about one
  // sample in 8,000 and 12,000: whether a run throws, and which of their
  // two messages escapes, depends on the first bad sample of the first
  // chunk that holds one, while later chunks on other threads may throw
  // too. A bad band puts ops/element wholly below zero, so every sample
  // throws. Each run must give its 1-thread bytes or message again at 1,
  // 2, 4 and 7 threads.
  const RatInputs in = md_inputs();
  const double ops = in.comp.ops_per_element;
  const double tsoft = in.software.tsoft_sec;
  const std::size_t on_boundary[] = {1024, 2048, 4096};
  util::Rng rng(20261021);
  std::size_t threw = 0;
  constexpr int kRuns = 18;
  for (int iter = 0; iter < kRuns; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const std::size_t n = iter % 2 == 0
                              ? on_boundary[rng.uniform_index(3)]
                              : 2 + rng.uniform_index(5000);
    UncertaintyModel model = UncertaintyModel::typical(in);
    if (iter % 3 == 1) {
      model.ops_per_element = InputDistribution::uniform(-ops / 8000, ops);
      model.tsoft_sec = InputDistribution::uniform(-tsoft / 12000, tsoft);
    } else if (iter % 3 == 2) {
      model.ops_per_element =
          InputDistribution::normal(-5.0, 0.1, -10.0, -1.0);
    }
    const std::uint64_t seed = rng.next_u64();
    const std::string serial = observed_monte_carlo(in, model, n, seed, 1);
    threw += serial.rfind("threw: ", 0) == 0;
    for (const std::size_t threads : kThreadCounts)
      EXPECT_EQ(observed_monte_carlo(in, model, n, seed, threads), serial)
          << n << " samples, " << threads << " threads";
  }
  // Every bad-band run throws and no typical one does; the rare bands
  // make some runs throw and leave others whole.
  EXPECT_GT(threw, std::size_t{kRuns / 3});
  EXPECT_LT(threw, std::size_t{2 * kRuns / 3});
}

TEST(BatchIdentityThreads, WorksheetBatchGivesOneResultAtAnyThreadCount) {
  // Seeded file lists drawn, with repeats, from good worksheets (the case
  // studies and fuzzed mutants), malformed ones (each with its own
  // diagnostic) and paths that do not exist. io::run_batch must give the
  // same entries, diagnostics included, at every thread count: compared
  // as its JSON and CSV documents, which carry every input, prediction
  // and diagnostic.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "batch_identity_files";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<fs::path> pool;
  auto add = [&](const std::string& name, const std::string& text) {
    std::ofstream(dir / name) << text;
    pool.push_back(dir / name);
  };
  const auto good = fuzzed_worksheets(5, 0xBA7C4);
  for (std::size_t i = 0; i < good.size(); ++i)
    add("good-" + std::to_string(i) + ".rat", good[i].serialize());
  const std::string pdf1d = pdf1d_inputs().serialize();
  RatInputs out_of_domain = pdf1d_inputs();
  out_of_domain.comm.alpha_write = 0.0;
  RatInputs non_finite = pdf1d_inputs();
  non_finite.software.tsoft_sec = std::numeric_limits<double>::infinity();
  add("bad-list.rat", "name = broken\nfclock_hz = 75e6 oops\n");
  add("duplicate-key.rat", pdf1d + "alpha_write = 0.5\n");
  add("out-of-domain.rat", out_of_domain.serialize());
  add("non-finite.rat", non_finite.serialize());
  add("truncated.rat", pdf1d.substr(0, pdf1d.size() / 2));
  add("empty.rat", "");
  for (int i = 0; i < 3; ++i)
    pool.push_back(dir / ("missing-" + std::to_string(i) + ".rat"));

  util::Rng rng(20261022);
  for (int iter = 0; iter < 20; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    std::vector<fs::path> files;
    for (std::size_t k = 1 + rng.uniform_index(24); k > 0; --k)
      files.push_back(pool[rng.uniform_index(pool.size())]);
    const io::BatchResult serial = io::run_batch(files, 1);
    ASSERT_EQ(serial.entries.size(), files.size());
    const std::string json = io::batch_json(serial);
    const std::string csv = io::batch_csv(serial);
    for (const std::size_t threads : kThreadCounts) {
      const io::BatchResult r = io::run_batch(files, threads);
      EXPECT_EQ(r.n_ok, serial.n_ok) << threads << " threads";
      EXPECT_EQ(io::batch_json(r), json) << threads << " threads";
      EXPECT_EQ(io::batch_csv(r), csv) << threads << " threads";
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rat::core
