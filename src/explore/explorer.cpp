#include "explore/explorer.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/evaluation.hpp"
#include "io/codec.hpp"
#include "obs/metrics.hpp"
#include "util/parallel_for.hpp"
#include "util/require.hpp"

namespace rat::explore {

namespace {

using core::CandidateEvaluation;
using core::DesignCandidate;

/// The explorer's scan, one window of candidates at a time. A window holds
/// 256 candidates when serial and threads * 4 when parallel. step() runs
/// evaluate(i, candidate) per candidate, serially or through
/// util::parallel_map, and hands the results to take(i, result) in
/// enumeration order until it returns true (the winner). A candidate whose
/// evaluate threw (a worksheet that fails validation, say) holds its
/// exception in its slot, and the exception is rethrown only when the
/// merge reaches that slot. So the candidates taken, and which exception
/// escapes, are those of the serial Figure-1 loop (core::run_methodology)
/// at any thread count; work past the winner is bounded by one window.
class OrderedScan {
 public:
  /// @p n_threads as util::resolve_thread_count takes it, capped at
  /// @p n_candidates, the most the scan will see.
  OrderedScan(std::size_t n_threads, std::size_t n_candidates)
      : threads_(std::min(util::resolve_thread_count(n_threads),
                          n_candidates)),
        window_(threads_ <= 1 ? 256 : threads_ * 4) {}

  /// Candidates per window.
  std::size_t window() const { return window_; }

  /// Scan @p candidates, the next ones in enumeration order: the first
  /// has the index after the last candidate of the previous step. Returns
  /// whether take accepted the winner.
  template <typename Evaluate, typename Take>
  bool step(const std::vector<DesignCandidate>& candidates,
            Evaluate&& evaluate, Take&& take) {
    const std::size_t first = next_;
    const std::size_t count = candidates.size();
    next_ += count;
    if (threads_ <= 1) {
      for (std::size_t k = 0; k < count; ++k)
        if (take(first + k, evaluate(first + k, candidates[k]))) return true;
      return false;
    }
    using Result = decltype(evaluate(first, candidates[0]));
    struct Slot {
      Result result{};
      std::exception_ptr error;
    };
    std::vector<Slot> slots = util::parallel_map(
        count,
        [&](std::size_t k) {
          Slot slot;
          try {
            slot.result = evaluate(first + k, candidates[k]);
          } catch (...) {
            slot.error = std::current_exception();
          }
          return slot;
        },
        threads_);
    for (std::size_t k = 0; k < count; ++k) {
      if (slots[k].error) std::rethrow_exception(slots[k].error);
      if (take(first + k, std::move(slots[k].result))) return true;
    }
    return false;
  }

 private:
  std::size_t threads_;
  std::size_t window_;
  std::size_t next_ = 0;  ///< enumeration index of the next window's first
};

/// How a taken candidate was decided (docs/EXPLORATION.md): its own
/// prediction failed the throughput gate, the full gate pipeline ran, or
/// the plan cache replayed it. A candidate nothing takes counts as pruned.
enum class Fate : std::uint8_t { kBounded, kEvaluated, kRestored };

class PrunedExploration {
 public:
  PrunedExploration(const core::DesignAxes& axes,
                    const core::CandidateFactory& factory,
                    const core::Requirements& req,
                    const rcsim::Device& device, const ExploreOptions& options)
      : axes_(axes), factory_(factory), req_(req), device_(device),
        options_(options) {}

  ExploreResult run();

 private:
  struct Item {
    CandidateEvaluation ev;
    Fate fate = Fate::kEvaluated;
    std::string key;  ///< plan-cache key of a fresh evaluation
  };
  /// The per-candidate routine of the scan: the candidate's predict(),
  /// the throughput gate on that prediction, then plan-cache replay, then
  /// the full gate pipeline. Safe on scan workers: it reads only the
  /// candidate and the thread-safe cache.
  Item evaluate(std::size_t ci, const DesignCandidate& cand) const;
  /// Take one candidate's item: count its fate, the gate that rejected
  /// it and the cache effort, and store a fresh evaluation in the plan
  /// cache.
  void take(const Item& item);

  void scan(ExploreResult& result);
  void finalize(ExploreResult& result);

  std::string cache_key(const DesignCandidate& cand) const {
    return PlanCache::key(io::candidate_fingerprint(cand), context_fp_);
  }

  const core::DesignAxes& axes_;
  const core::CandidateFactory& factory_;
  const core::Requirements& req_;
  const rcsim::Device& device_;
  const ExploreOptions& options_;

  std::size_t total_ = 0;
  PlanCache* cache_ = nullptr;
  std::uint64_t context_fp_ = 0;
  ExploreStats stats_;
};

PrunedExploration::Item PrunedExploration::evaluate(
    std::size_t ci, const DesignCandidate& cand) const {
  Item item;
  const core::ThroughputPrediction pred =
      core::predict(cand.inputs, cand.decision_clock_hz);
  // The point's own prediction is an exact bound on itself: the gate's
  // rejection is byte-identical to a full evaluation's, at none of the
  // deeper gates' cost, and it is cheaper to recompute than to store.
  if (!core::apply_throughput_gate(item.ev, ci, cand.inputs.name, req_,
                                   pred)) {
    item.fate = Fate::kBounded;
    return item;
  }
  if (cache_) {
    item.key = cache_key(cand);
    if (auto ev = cache_->lookup(item.key, ci, cand.inputs.name)) {
      item.ev = std::move(*ev);
      item.fate = Fate::kRestored;
      return item;
    }
  }
  item.ev = core::evaluate_candidate(ci, cand, req_, device_, pred);
  return item;
}

void PrunedExploration::take(const Item& item) {
  switch (item.ev.reject) {
    case core::RejectReason::kNone: break;
    case core::RejectReason::kInsufficientThroughput:
      ++stats_.rejected_throughput;
      break;
    case core::RejectReason::kUnrealizablePrecision:
      ++stats_.rejected_precision;
      break;
    case core::RejectReason::kInsufficientResources:
      ++stats_.rejected_resource;
      break;
    case core::RejectReason::kInsufficientEnergySavings:
      ++stats_.rejected_power;
      break;
  }
  switch (item.fate) {
    case Fate::kBounded:
      ++stats_.points_bounded;
      return;
    case Fate::kRestored:
      ++stats_.points_restored;
      ++stats_.cache_hits;
      return;
    case Fate::kEvaluated:
      ++stats_.points_evaluated;
      break;
  }
  if (!cache_) return;
  ++stats_.cache_misses;
  cache_->insert(item.key, item.ev);
  ++stats_.cache_puts;
}

void PrunedExploration::scan(ExploreResult& result) {
  obs::ScopedTimer timer("explore.assemble");
  core::MethodologyOutcome& out = result.design.outcome;
  // Reserved once, from the grid size: two trace entries per throughput
  // rejection. Grown by doubling instead, the vectors would map fresh
  // pages past malloc's mmap threshold and fault them in every campaign.
  const std::size_t expected = std::min(total_, core::kMaxReservedCandidates);
  out.trace.reserve(2 * expected);
  out.predictions.reserve(expected);
  // The grid is walked once, in enumeration order, and scanned one window
  // of candidates at a time; a scanned window is dropped before the walk
  // builds the next. Once the winner is taken or the merge reaches an
  // error, the walk goes on without keeping candidates: the factory still
  // sees every point, so the skipped labels are complete and the
  // factory's exceptions escape before the merge's error, which is
  // rethrown when the walk ends. The exhaustive scan, which enumerates
  // the whole grid first, throws in that order too.
  OrderedScan ordered(options_.n_threads, total_);
  std::vector<DesignCandidate> window;
  window.reserve(std::min(ordered.window(), total_));
  bool over = false;
  std::exception_ptr error;
  auto scan_window = [&] {
    try {
      over = ordered.step(
          window,
          [this](std::size_t ci, const DesignCandidate& cand) {
            return evaluate(ci, cand);
          },
          [this, &out](std::size_t ci, Item&& item) {
            take(item);
            return core::append_evaluation(out, ci, std::move(item.ev));
          });
    } catch (...) {
      error = std::current_exception();
      over = true;
    }
    window.clear();
  };
  core::walk_design_space(axes_, factory_, &result.design.skipped_labels,
                          [&](DesignCandidate&& cand) {
                            if (over) return;
                            window.push_back(std::move(cand));
                            if (window.size() == ordered.window())
                              scan_window();
                          });
  if (!window.empty()) scan_window();
  result.design.points_skipped = result.design.skipped_labels.size();
  if (result.design.points_skipped == total_)
    throw std::invalid_argument(
        "explore_design_space_pruned: factory skipped every point");
  if (error) std::rethrow_exception(error);
  if (out.proceed) result.winner_index = out.accepted_index;
}

void PrunedExploration::finalize(ExploreResult& result) {
  stats_.points_total = total_;
  stats_.points_skipped = result.design.points_skipped;
  // Every candidate the factory built and nothing took: past the winner.
  stats_.points_pruned = total_ - stats_.points_skipped -
                         stats_.points_bounded - stats_.points_evaluated -
                         stats_.points_restored;
  result.stats = stats_;
  result.front = pareto_front(result.design.outcome, req_.double_buffered);
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.add_counter("explore.points_total", stats_.points_total);
    reg.add_counter("explore.points_skipped", stats_.points_skipped);
    reg.add_counter("explore.points_evaluated", stats_.points_evaluated);
    reg.add_counter("explore.points_bounded", stats_.points_bounded);
    reg.add_counter("explore.points_restored", stats_.points_restored);
    reg.add_counter("explore.points_pruned", stats_.points_pruned);
    reg.add_counter("explore.cache.hit", stats_.cache_hits);
    reg.add_counter("explore.cache.miss", stats_.cache_misses);
    reg.add_counter("explore.cache.put", stats_.cache_puts);
    reg.add_counter("explore.rejected.throughput", stats_.rejected_throughput);
    reg.add_counter("explore.rejected.precision", stats_.rejected_precision);
    reg.add_counter("explore.rejected.resource", stats_.rejected_resource);
    reg.add_counter("explore.rejected.power", stats_.rejected_power);
  }
}

ExploreResult PrunedExploration::run() {
  obs::ScopedTimer timer("explore.design_space");
  util::require_positive(req_.min_speedup,
                         "explore_design_space_pruned: min_speedup <= 0");
  ExploreResult result;
  total_ = axes_.size();
  result.design.points_total = total_;
  cache_ = options_.plan_cache;
  if (cache_) context_fp_ = io::requirements_fingerprint(req_, device_);
  scan(result);
  finalize(result);
  return result;
}

}  // namespace

ExploreResult explore_design_space_pruned(
    const core::DesignAxes& axes, const core::CandidateFactory& factory,
    const core::Requirements& req, const rcsim::Device& device,
    const ExploreOptions& options) {
  return PrunedExploration(axes, factory, req, device, options).run();
}

std::vector<ParetoPoint> pareto_front(const core::MethodologyOutcome& outcome,
                                      bool double_buffered) {
  std::vector<ParetoPoint> front;
  double best = -std::numeric_limits<double>::infinity();
  std::size_t pos = 0;
  bool have_current = false;
  std::size_t current = 0;
  // Trace entries for one candidate are contiguous and in evaluation
  // order, so each index transition pairs the next candidate with the
  // next prediction.
  for (const core::TraceEntry& e : outcome.trace) {
    if (have_current && e.candidate_index == current) continue;
    have_current = true;
    current = e.candidate_index;
    if (pos >= outcome.predictions.size()) break;
    const core::ThroughputPrediction& p = outcome.predictions[pos++];
    const double s = double_buffered ? p.speedup_db : p.speedup_sb;
    if (s > best) {
      best = s;
      front.push_back({e.candidate_index, e.candidate_name, p});
    }
  }
  return front;
}

}  // namespace rat::explore
