#include "core/montecarlo.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rat::core {

InputDistribution InputDistribution::uniform(double lo, double hi) {
  if (!(lo < hi))
    throw std::invalid_argument("InputDistribution::uniform: lo >= hi");
  InputDistribution d;
  d.kind = Kind::kUniform;
  d.lo = lo;
  d.hi = hi;
  return d;
}

InputDistribution InputDistribution::normal(double mean, double sigma,
                                            double lo, double hi) {
  if (sigma <= 0.0 || !(lo < hi))
    throw std::invalid_argument("InputDistribution::normal: bad parameters");
  InputDistribution d;
  d.kind = Kind::kNormal;
  d.mean = mean;
  d.sigma = sigma;
  d.lo = lo;
  d.hi = hi;
  return d;
}

UncertaintyModel UncertaintyModel::typical(const RatInputs& inputs) {
  inputs.validate();
  UncertaintyModel m;
  auto pct_band = [](double v, double frac, double cap_hi) {
    return InputDistribution::uniform(v * (1.0 - frac),
                                      std::min(v * (1.0 + frac), cap_hi));
  };
  m.alpha_write = pct_band(inputs.comm.alpha_write, 0.10, 1.0);
  m.alpha_read = pct_band(inputs.comm.alpha_read, 0.10, 1.0);
  m.ops_per_element =
      pct_band(inputs.comp.ops_per_element, 0.25, 1e300);
  m.throughput_proc =
      pct_band(inputs.comp.throughput_ops_per_cycle, 0.25, 1e300);
  const auto [lo, hi] = std::minmax_element(inputs.comp.fclock_hz.begin(),
                                            inputs.comp.fclock_hz.end());
  if (*lo < *hi)
    m.fclock_hz = InputDistribution::uniform(*lo, *hi);
  // tsoft is measured, not estimated: kFixed.
  return m;
}

double sample(const InputDistribution& d, double point_value,
              util::Rng& rng) {
  switch (d.kind) {
    case InputDistribution::Kind::kFixed:
      return point_value;
    case InputDistribution::Kind::kUniform:
      return rng.uniform(d.lo, d.hi);
    case InputDistribution::Kind::kNormal: {
      // Rejection-truncated normal; falls back to clamping after a bounded
      // number of tries so a mis-specified band cannot hang the sampler.
      // The fallback clamps the *last rejected draw*, not the mean:
      // clamping the mean collapsed every fallback sample to the same
      // constant, silently removing all variance when the band sits far
      // from the mean.
      double x = d.mean;
      for (int tries = 0; tries < 64; ++tries) {
        x = rng.normal(d.mean, d.sigma);
        if (x >= d.lo && x <= d.hi) return x;
      }
      return std::clamp(x, d.lo, d.hi);
    }
  }
  throw std::logic_error("unreachable");
}

namespace {

/// Chunk size for parallel sampling. Fixed (never derived from the thread
/// count) so the overall sample sequence depends only on the seed: chunk c
/// always covers samples [c*1024, (c+1)*1024) from stream `seed + c`.
constexpr std::size_t kChunkSamples = 1024;

/// Destination slices one chunk writes into: chunk c owns rows
/// [c*kChunkSamples, c*kChunkSamples + count) of each column, so chunks
/// never contend and the merged order is the serial order by construction.
struct SampleSink {
  double* s_sb;
  double* s_db;
  double* t_rc;
  double* t_comm;
  double* t_comp;
};

/// Draw one chunk's samples and evaluate each with predict_unchecked()
/// (scalar — the RNG and the truncated-normal rejection loop are
/// inherently sequential). Sampling order per point is fixed
/// (alpha_write, alpha_read, ops, throughput_proc, tsoft, fclock), so the
/// sample stream depends on the seed alone.
std::size_t sample_chunk(const RatInputs& inputs,
                         const UncertaintyModel& model, std::size_t count,
                         double goal_speedup, std::uint64_t chunk_seed,
                         RatInputs& scratch, const SampleSink& sink) {
  util::Rng rng(chunk_seed);
  const double base_clock = inputs.comp.fclock_hz.front();
  std::size_t meets_goal = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double aw =
        std::min(1.0, sample(model.alpha_write, inputs.comm.alpha_write, rng));
    const double ar =
        std::min(1.0, sample(model.alpha_read, inputs.comm.alpha_read, rng));
    const double ops =
        sample(model.ops_per_element, inputs.comp.ops_per_element, rng);
    const double tp = sample(model.throughput_proc,
                             inputs.comp.throughput_ops_per_cycle, rng);
    const double tsoft =
        sample(model.tsoft_sec, inputs.software.tsoft_sec, rng);
    const double fclock = sample(model.fclock_hz, base_clock, rng);

    scratch.comm.alpha_write = aw;
    scratch.comm.alpha_read = ar;
    scratch.comp.ops_per_element = ops;
    scratch.comp.throughput_ops_per_cycle = tp;
    scratch.software.tsoft_sec = tsoft;
    // Only the six sampled fields differ from the validated worksheet. A
    // mis-specified band can push one outside the model domain (e.g. a
    // normal whose [lo,hi] sits below zero); the checked call then raises
    // predict()'s exact diagnostic.
    const bool in_domain = aw > 0.0 && ar > 0.0 && ops > 0.0 && tp > 0.0 &&
                           tsoft > 0.0 && fclock > 0.0;
    const ThroughputPrediction p = in_domain
                                       ? predict_unchecked(scratch, fclock)
                                       : predict(scratch, fclock);
    sink.s_sb[i] = p.speedup_sb;
    sink.s_db[i] = p.speedup_db;
    sink.t_rc[i] = p.t_rc_sb_sec;
    sink.t_comm[i] = p.t_comm_sec;
    sink.t_comp[i] = p.t_comp_sec;
    if (goal_speedup > 0.0 && p.speedup_sb >= goal_speedup) ++meets_goal;
  }
  return meets_goal;
}

}  // namespace

Percentiles percentiles_of(std::vector<double>& xs) {
  if (xs.empty())
    throw std::invalid_argument("percentiles_of: empty input");
  std::sort(xs.begin(), xs.end());
  auto at = [&](double q) {
    const double idx = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
  };
  Percentiles p;
  p.p10 = at(0.10);
  p.p50 = at(0.50);
  p.p90 = at(0.90);
  p.mean = util::mean(xs);
  return p;
}

MonteCarloResult run_monte_carlo(const RatInputs& inputs,
                                 const UncertaintyModel& model,
                                 std::size_t n, double goal_speedup,
                                 std::uint64_t seed, std::size_t n_threads) {
  inputs.validate();
  if (n < 2) throw std::invalid_argument("run_monte_carlo: n < 2");

  obs::ScopedTimer run_timer("montecarlo.run");
  if (obs::enabled())
    obs::Registry::global().add_counter("montecarlo.samples", n);

  // Result columns are sized once; each chunk fills its own disjoint slice
  // (no per-chunk vectors, no merge copy). Goal counts are per-chunk slots
  // summed afterwards, so the tally is thread-count-invariant too.
  const std::size_t n_chunks = (n + kChunkSamples - 1) / kChunkSamples;
  std::vector<double> s_sb(n), s_db(n), t_rc(n), t_comm(n), t_comp(n);
  std::vector<std::size_t> chunk_goal(n_chunks, 0);
  util::parallel_for(
      n_chunks,
      [&](std::size_t c) {
        obs::ScopedTimer chunk_timer("montecarlo.chunk");
        const std::size_t lo = c * kChunkSamples;
        const std::size_t count = std::min(kChunkSamples, n - lo);
        // One scratch worksheet per pool thread, reused across every
        // chunk that lands on it, so a steady-state chunk performs no
        // per-point allocation (copying a full RatInputs — name string,
        // clock vector — per sample would).
        thread_local RatInputs scratch;
        scratch = inputs;
        chunk_goal[c] = sample_chunk(
            inputs, model, count, goal_speedup,
            seed + static_cast<std::uint64_t>(c), scratch,
            SampleSink{s_sb.data() + lo, s_db.data() + lo, t_rc.data() + lo,
                       t_comm.data() + lo, t_comp.data() + lo});
      },
      n_threads);
  std::size_t meets_goal = 0;
  for (std::size_t g : chunk_goal) meets_goal += g;

  MonteCarloResult r;
  r.n_samples = n;
  r.speedup_db = percentiles_of(s_db);
  r.t_rc_sb_sec = percentiles_of(t_rc);
  r.t_comm_sec = percentiles_of(t_comm);
  r.t_comp_sec = percentiles_of(t_comp);
  r.speedup_sb = percentiles_of(s_sb);  // sorts s_sb
  r.probability_of_goal =
      goal_speedup > 0.0
          ? static_cast<double>(meets_goal) / static_cast<double>(n)
          : 0.0;
  r.speedup_sb_samples = std::move(s_sb);
  return r;
}

}  // namespace rat::core
