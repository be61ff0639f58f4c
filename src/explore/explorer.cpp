#include "explore/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <optional>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "core/evaluation.hpp"
#include "io/codec.hpp"
#include "obs/metrics.hpp"
#include "util/parallel_for.hpp"

namespace rat::explore {

namespace {

using core::CandidateEvaluation;
using core::DesignCandidate;

/// Final disposition of one grid point (docs/EXPLORATION.md). kUntouched
/// points become points_pruned: the search proved nothing about them and
/// the trace assembly never needed them (they lie past the winner).
enum PointStatus : std::uint8_t {
  kUntouched = 0,
  kSkippedPoint,
  kBoundedPoint,
  kEvaluatedPoint,
  kRestoredPoint,
};

enum class EvalKind : std::uint8_t {
  kFresh,
  kRestoredCache,
  kBoundedSynth,  ///< throughput rejection proven by the point's prediction
  kViolation,     ///< bound claimed fail, the point's prediction passed
};

/// An axis-aligned, inclusive box of axis indices.
struct Box {
  std::size_t lo[3];
  std::size_t hi[3];
  std::size_t key = 0;  ///< lex index of the low corner (queue priority)

  std::size_t points() const {
    return (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1) * (hi[2] - lo[2] + 1);
  }
  bool splittable() const {
    return hi[0] > lo[0] || hi[1] > lo[1] || hi[2] > lo[2];
  }
};

struct ByKey {
  bool operator()(const Box& a, const Box& b) const { return a.key > b.key; }
};

/// Boxes of at most this many grid points are evaluated exactly instead
/// of split further.
constexpr std::size_t kLeafPoints = 8;

struct MemoEntry {
  CandidateEvaluation ev;
  EvalKind kind;
};

class PrunedExploration {
 public:
  PrunedExploration(const core::DesignAxes& axes,
                    const core::CandidateFactory& factory,
                    const core::Requirements& req,
                    const rcsim::Device& device, const ExploreOptions& options)
      : axes_(axes), factory_(factory), req_(req), device_(device),
        options_(options), policy_(options.policy) {}

  ExploreResult run();

 private:
  // --- grid ----------------------------------------------------------
  std::size_t lex(std::size_t ip, std::size_t ifc, std::size_t ib) const {
    return (ip * nf_ + ifc) * nb_ + ib;
  }
  void build_grid();

  // --- search --------------------------------------------------------
  void search();
  std::optional<std::size_t> min_cand_in_box(const Box& b) const;
  struct Bound {
    double lb = 0.0, ub = 0.0;
  };
  std::optional<Bound> corner_bound(const Box& b);
  void mark_bounded(const Box& b);
  void leaf_evaluate(const Box& b);
  void evaluate_point(std::size_t ci, std::size_t lex_index,
                      const core::WindowPredictions& preds, std::size_t k);
  void note(std::size_t ci, std::size_t lex_index, CandidateEvaluation&& ev,
            EvalKind kind);

  // --- assembly ------------------------------------------------------
  struct Item {
    CandidateEvaluation ev;
    EvalKind kind = EvalKind::kFresh;
    bool cache_missed = false;
    bool cache_put = false;
  };
  // Safe from assembly workers: it only reads memo_/status_ and calls the
  // thread-safe cache insert.
  Item assemble_one(std::size_t ci, std::size_t k,
                    const core::WindowPredictions& window);
  void assemble_full(ExploreResult& result);
  void assemble_elided(ExploreResult& result);
  bool merge(std::size_t ci, Item&& item, core::MethodologyOutcome& out);
  /// Append one candidate's evaluation to @p out in enumeration order and
  /// tally the gate that rejected it; true = accepted.
  bool append(CandidateEvaluation&& ev, core::MethodologyOutcome& out);

  void finalize(ExploreResult& result);

  std::string cache_key(const DesignCandidate& cand) const {
    return PlanCache::key(io::candidate_fingerprint(cand), context_fp_);
  }
  double gate_speedup(const core::ThroughputPrediction& pred) const {
    return req_.double_buffered ? pred.speedup_db : pred.speedup_sb;
  }

  const core::DesignAxes& axes_;
  const core::CandidateFactory& factory_;
  const core::Requirements& req_;
  const rcsim::Device& device_;
  const ExploreOptions& options_;
  const PruningPolicy& policy_;

  std::size_t np_ = 0, nf_ = 0, nb_ = 0, total_ = 0;
  std::vector<DesignCandidate> candidates_;
  std::vector<core::DesignPoint> points_;
  std::vector<std::ptrdiff_t> cand_of_point_;  ///< lex → candidate, -1 skip
  std::vector<std::size_t> lex_of_cand_;
  std::vector<std::uint8_t> status_;

  PlanCache* cache_ = nullptr;
  std::uint64_t context_fp_ = 0;

  std::optional<std::size_t> incumbent_;
  std::unordered_map<std::size_t, MemoEntry> memo_;
  /// Corner-prediction memo: lex index → gate-mode speedup (NaN when the
  /// corner candidate failed validation and cannot bound anything).
  std::unordered_map<std::size_t, double> corner_speedup_;

  ExploreStats stats_;
};

void PrunedExploration::build_grid() {
  np_ = axes_.parallelism.size();
  nf_ = axes_.fclock_hz.size();
  nb_ = axes_.format_bits.size();
  cand_of_point_.assign(total_, -1);
  lex_of_cand_.assign(candidates_.size(), 0);
  status_.assign(total_, kSkippedPoint);
  // The factory was already consulted by enumerate_design_space; recover
  // the lex ↔ candidate mapping by walking the grid in the same order and
  // matching the per-candidate design points head-on.
  std::size_t next = 0;
  for (std::size_t ip = 0; ip < np_; ++ip) {
    for (std::size_t ifc = 0; ifc < nf_; ++ifc) {
      for (std::size_t ib = 0; ib < nb_; ++ib) {
        if (next >= points_.size()) return;
        const core::DesignPoint& p = points_[next];
        if (p.parallelism == axes_.parallelism[ip] &&
            p.fclock_hz == axes_.fclock_hz[ifc] &&
            p.format_bits == axes_.format_bits[ib]) {
          const std::size_t l = lex(ip, ifc, ib);
          cand_of_point_[l] = static_cast<std::ptrdiff_t>(next);
          lex_of_cand_[next] = l;
          status_[l] = kUntouched;
          ++next;
        }
      }
    }
  }
}

std::optional<std::size_t> PrunedExploration::min_cand_in_box(
    const Box& b) const {
  for (std::size_t ip = b.lo[0]; ip <= b.hi[0]; ++ip)
    for (std::size_t ifc = b.lo[1]; ifc <= b.hi[1]; ++ifc)
      for (std::size_t ib = b.lo[2]; ib <= b.hi[2]; ++ib) {
        const std::ptrdiff_t ci = cand_of_point_[lex(ip, ifc, ib)];
        if (ci >= 0) return static_cast<std::size_t>(ci);
      }
  return std::nullopt;
}

std::optional<PrunedExploration::Bound> PrunedExploration::corner_bound(
    const Box& b) {
  // Distinct corners: {lo, hi} per axis, collapsed where the axis span
  // is a single index. At most 8 points.
  std::size_t corners[8];
  std::size_t n_corners = 0;
  const std::size_t pe = b.lo[0] == b.hi[0] ? 1 : 2;
  const std::size_t fe = b.lo[1] == b.hi[1] ? 1 : 2;
  const std::size_t be = b.lo[2] == b.hi[2] ? 1 : 2;
  for (std::size_t a = 0; a < pe; ++a)
    for (std::size_t c = 0; c < fe; ++c)
      for (std::size_t d = 0; d < be; ++d)
        corners[n_corners++] = lex(a ? b.hi[0] : b.lo[0],
                                   c ? b.hi[1] : b.lo[1],
                                   d ? b.hi[2] : b.lo[2]);
  // A skipped corner leaves the box unbounded: the factory punched a hole
  // where the extremum would be read. The caller splits further instead.
  for (std::size_t c = 0; c < n_corners; ++c)
    if (cand_of_point_[corners[c]] < 0) return std::nullopt;

  std::vector<std::size_t> fresh_lex, fresh_ci;
  for (std::size_t c = 0; c < n_corners; ++c)
    if (corner_speedup_.find(corners[c]) == corner_speedup_.end()) {
      fresh_lex.push_back(corners[c]);
      fresh_ci.push_back(
          static_cast<std::size_t>(cand_of_point_[corners[c]]));
    }
  if (!fresh_ci.empty()) {
    core::WindowPredictions preds;
    preds.fill(candidates_, fresh_ci);
    stats_.corner_evaluations += fresh_ci.size();
    for (std::size_t k = 0; k < fresh_ci.size(); ++k)
      corner_speedup_[fresh_lex[k]] =
          preds.errors[k] ? std::numeric_limits<double>::quiet_NaN()
                          : gate_speedup(preds.predictions[k]);
  }

  Bound bound{std::numeric_limits<double>::infinity(),
              -std::numeric_limits<double>::infinity()};
  for (std::size_t c = 0; c < n_corners; ++c) {
    const double s = corner_speedup_.at(corners[c]);
    if (std::isnan(s)) return std::nullopt;
    bound.lb = std::min(bound.lb, s);
    bound.ub = std::max(bound.ub, s);
  }
  return bound;
}

void PrunedExploration::mark_bounded(const Box& b) {
  for (std::size_t ip = b.lo[0]; ip <= b.hi[0]; ++ip)
    for (std::size_t ifc = b.lo[1]; ifc <= b.hi[1]; ++ifc)
      for (std::size_t ib = b.lo[2]; ib <= b.hi[2]; ++ib) {
        const std::size_t l = lex(ip, ifc, ib);
        if (cand_of_point_[l] >= 0) status_[l] = kBoundedPoint;
      }
}

void PrunedExploration::note(std::size_t ci, std::size_t lex_index,
                             CandidateEvaluation&& ev, EvalKind kind) {
  if (ev.passed && (!incumbent_ || ci < *incumbent_)) incumbent_ = ci;
  switch (kind) {
    case EvalKind::kBoundedSynth: status_[lex_index] = kBoundedPoint; break;
    case EvalKind::kRestoredCache: status_[lex_index] = kRestoredPoint; break;
    default: status_[lex_index] = kEvaluatedPoint; break;
  }
  memo_.emplace(ci, MemoEntry{std::move(ev), kind});
}

void PrunedExploration::evaluate_point(std::size_t ci, std::size_t lex_index,
                                       const core::WindowPredictions& preds,
                                       std::size_t k) {
  const DesignCandidate& cand = candidates_[ci];
  // A candidate whose worksheet fails validation cannot pass; whether the
  // run must *throw* for it depends on where the winner lands, which only
  // the in-order trace assembly knows — leave it untouched here.
  if (preds.errors[k]) return;
  const core::ThroughputPrediction& pred = preds.predictions[k];
  // The point's own prediction is an exact bound on itself: a throughput
  // rejection synthesized here is byte-identical to a full evaluation's
  // (same gate, same strings) at none of the deeper-gate cost.
  CandidateEvaluation synth;
  if (!core::apply_throughput_gate(synth, ci, cand.inputs.name, req_, pred)) {
    note(ci, lex_index, std::move(synth), EvalKind::kBoundedSynth);
    return;
  }
  const std::string key = cache_ ? cache_key(cand) : std::string();
  if (cache_) {
    if (auto ev = cache_->lookup(key, ci, cand.inputs.name)) {
      ++stats_.cache_hits;
      note(ci, lex_index, std::move(*ev), EvalKind::kRestoredCache);
      return;
    }
    ++stats_.cache_misses;
  }
  CandidateEvaluation ev =
      core::evaluate_candidate(ci, cand, req_, device_, pred);
  if (cache_) {
    cache_->insert(key, ev);
    ++stats_.cache_puts;
  }
  note(ci, lex_index, std::move(ev), EvalKind::kFresh);
}

void PrunedExploration::leaf_evaluate(const Box& b) {
  std::vector<std::size_t> lexes, cids;
  for (std::size_t ip = b.lo[0]; ip <= b.hi[0]; ++ip)
    for (std::size_t ifc = b.lo[1]; ifc <= b.hi[1]; ++ifc)
      for (std::size_t ib = b.lo[2]; ib <= b.hi[2]; ++ib) {
        const std::size_t l = lex(ip, ifc, ib);
        if (cand_of_point_[l] < 0) continue;
        lexes.push_back(l);
        cids.push_back(static_cast<std::size_t>(cand_of_point_[l]));
      }
  if (cids.empty()) return;
  core::WindowPredictions preds;
  preds.fill(candidates_, cids);
  // cids ascend with the box's lex order, so the first full pass makes
  // every later leaf point prunable on the spot.
  for (std::size_t k = 0; k < cids.size(); ++k) {
    if (incumbent_ && cids[k] > *incumbent_) break;
    evaluate_point(cids[k], lexes[k], preds, k);
  }
}

void PrunedExploration::search() {
  obs::ScopedTimer timer("explore.search");
  std::priority_queue<Box, std::vector<Box>, ByKey> queue;
  queue.push(Box{{0, 0, 0}, {np_ - 1, nf_ - 1, nb_ - 1}, 0});
  while (!queue.empty()) {
    const Box b = queue.top();
    queue.pop();
    ++stats_.regions_examined;
    const std::optional<std::size_t> min_ci = min_cand_in_box(b);
    if (!min_ci) continue;  // the factory skipped the whole box
    if (incumbent_ && *min_ci > *incumbent_) {
      ++stats_.regions_pruned_incumbent;
      continue;
    }
    bool proven_all_pass = false;
    if (b.points() > 1) {
      if (const std::optional<Bound> bound = corner_bound(b)) {
        if (bound->ub < req_.min_speedup) {
          ++stats_.regions_pruned_bound;
          mark_bounded(b);
          continue;
        }
        // Every point passes the throughput gate: splitting further can
        // prune nothing, so walk the box in enumeration order directly.
        proven_all_pass = bound->lb >= req_.min_speedup;
      }
    }
    if (proven_all_pass || b.points() <= kLeafPoints ||
        !b.splittable()) {
      leaf_evaluate(b);
      continue;
    }
    int axis = 0;
    std::size_t span = b.hi[0] - b.lo[0];
    for (int a = 1; a < 3; ++a)
      if (b.hi[a] - b.lo[a] > span) {
        span = b.hi[a] - b.lo[a];
        axis = a;
      }
    const std::size_t mid = b.lo[axis] + (b.hi[axis] - b.lo[axis]) / 2;
    Box left = b;
    left.hi[axis] = mid;
    Box right = b;
    right.lo[axis] = mid + 1;
    left.key = lex(left.lo[0], left.lo[1], left.lo[2]);
    right.key = lex(right.lo[0], right.lo[1], right.lo[2]);
    queue.push(left);
    queue.push(right);
    ++stats_.regions_split;
  }
}

PrunedExploration::Item PrunedExploration::assemble_one(
    std::size_t ci, std::size_t k, const core::WindowPredictions& window) {
  Item item;
  if (const auto it = memo_.find(ci); it != memo_.end()) {
    item.ev = it->second.ev;
    item.kind = it->second.kind == EvalKind::kViolation
                    ? EvalKind::kFresh  // violations are tallied once
                    : it->second.kind;
    return item;
  }
  const DesignCandidate& cand = candidates_[ci];
  const bool bounded = status_[lex_of_cand_[ci]] == kBoundedPoint;
  // Fresh work (synthesized or full) surfaces the validation error
  // predict() would have thrown, at the same point of the run.
  if (window.errors[k]) std::rethrow_exception(window.errors[k]);
  const core::ThroughputPrediction& pred = window.predictions[k];
  if (bounded) {
    // Re-check the bound's claim against the point's own prediction: a
    // monotone factory can never fail this, a non-monotone one demotes
    // the point to a full evaluation (and may move the winner earlier).
    CandidateEvaluation synth;
    if (!core::apply_throughput_gate(synth, ci, cand.inputs.name, req_,
                                     pred)) {
      item.ev = std::move(synth);
      item.kind = EvalKind::kBoundedSynth;
      return item;
    }
    item.kind = EvalKind::kViolation;
  }
  const std::string key = cache_ ? cache_key(cand) : std::string();
  if (cache_ && !bounded) {
    if (auto ev = cache_->lookup(key, ci, cand.inputs.name)) {
      item.ev = std::move(*ev);
      item.kind = EvalKind::kRestoredCache;
      return item;
    }
    item.cache_missed = true;
  }
  item.ev = core::evaluate_candidate(ci, cand, req_, device_, pred);
  if (cache_) {
    cache_->insert(key, item.ev);
    item.cache_put = true;
  }
  return item;
}

bool PrunedExploration::merge(std::size_t ci, Item&& item,
                              core::MethodologyOutcome& out) {
  const std::size_t l = lex_of_cand_[ci];
  switch (item.kind) {
    case EvalKind::kFresh:
      status_[l] = kEvaluatedPoint;
      break;
    case EvalKind::kViolation:
      status_[l] = kEvaluatedPoint;
      ++stats_.bound_violations;
      break;
    case EvalKind::kRestoredCache:
      status_[l] = kRestoredPoint;
      if (memo_.find(ci) == memo_.end()) ++stats_.cache_hits;
      break;
    case EvalKind::kBoundedSynth:
      status_[l] = kBoundedPoint;
      break;
  }
  if (item.cache_missed) ++stats_.cache_misses;
  if (item.cache_put) ++stats_.cache_puts;
  if (!append(std::move(item.ev), out)) return false;
  out.accepted_index = ci;
  return true;
}

bool PrunedExploration::append(CandidateEvaluation&& ev,
                               core::MethodologyOutcome& out) {
  for (auto& e : ev.trace) out.trace.push_back(std::move(e));
  out.predictions.push_back(ev.prediction);
  if (ev.passed) {
    out.proceed = true;
    return true;
  }
  out.last_reject = ev.reject;
  switch (ev.reject) {
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
    case core::RejectReason::kNone: break;
  }
  return false;
}

void PrunedExploration::assemble_full(ExploreResult& result) {
  obs::ScopedTimer timer("explore.assemble");
  core::MethodologyOutcome& out = result.design.outcome;
  const std::size_t n = candidates_.size();
  // A bound violation can only move the winner earlier, so nothing past
  // the search incumbent can ever reach the trace.
  const std::size_t limit = incumbent_ ? *incumbent_ + 1 : n;
  const std::size_t threads =
      std::min(util::resolve_thread_count(options_.n_threads), limit);
  const std::size_t window_size = threads <= 1 ? 256 : threads * 4;
  core::WindowPredictions window;
  bool done = false;
  for (std::size_t start = 0; start < limit && !done; start += window_size) {
    const std::size_t count = std::min(window_size, limit - start);
    window.fill(candidates_, start, count);
    if (threads <= 1) {
      for (std::size_t k = 0; k < count && !done; ++k)
        done = merge(start + k, assemble_one(start + k, k, window), out);
    } else {
      auto items = util::parallel_map(
          count,
          [&](std::size_t k) { return assemble_one(start + k, k, window); },
          threads);
      for (std::size_t k = 0; k < count && !done; ++k)
        done = merge(start + k, std::move(items[k]), out);
    }
  }
  if (out.proceed) result.winner_index = out.accepted_index;
}

void PrunedExploration::assemble_elided(ExploreResult& result) {
  obs::ScopedTimer timer("explore.assemble");
  core::MethodologyOutcome& out = result.design.outcome;
  std::vector<std::size_t> order;
  order.reserve(memo_.size());
  for (const auto& [ci, entry] : memo_) order.push_back(ci);
  std::sort(order.begin(), order.end());
  for (const std::size_t ci : order) {
    if (incumbent_ && ci > *incumbent_) break;
    if (append(std::move(memo_.at(ci).ev), out)) {
      // The sparse trace still names real enumeration indices; the
      // accepted index addresses the sparse predictions vector.
      out.accepted_index = out.predictions.size() - 1;
      result.winner_index = ci;
      break;
    }
  }
}

void PrunedExploration::finalize(ExploreResult& result) {
  stats_.points_total = total_;
  for (const std::uint8_t s : status_) {
    switch (s) {
      case kSkippedPoint: ++stats_.points_skipped; break;
      case kBoundedPoint: ++stats_.points_bounded; break;
      case kEvaluatedPoint: ++stats_.points_evaluated; break;
      case kRestoredPoint: ++stats_.points_restored; break;
      default: ++stats_.points_pruned; break;
    }
  }
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
    reg.add_counter("explore.regions_examined", stats_.regions_examined);
    reg.add_counter("explore.regions_split", stats_.regions_split);
    reg.add_counter("explore.regions_pruned_bound",
                    stats_.regions_pruned_bound);
    reg.add_counter("explore.regions_pruned_incumbent",
                    stats_.regions_pruned_incumbent);
    reg.add_counter("explore.corner_evaluations", stats_.corner_evaluations);
    reg.add_counter("explore.bound_violations", stats_.bound_violations);
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
  if (req_.min_speedup <= 0.0)
    throw std::invalid_argument(
        "explore_design_space_pruned: min_speedup <= 0");
  ExploreResult result;
  total_ = axes_.size();
  result.design.points_total = total_;
  candidates_ = core::enumerate_design_space(
      axes_, factory_, &result.design.skipped_labels, &points_);
  result.design.points_skipped = result.design.skipped_labels.size();
  if (candidates_.empty())
    throw std::invalid_argument(
        "explore_design_space_pruned: factory skipped every point");
  build_grid();

  cache_ = options_.plan_cache;
  if (cache_) context_fp_ = io::requirements_fingerprint(req_, device_);

  if (policy_.prune) search();
  if (policy_.prune && !policy_.full_trace)
    assemble_elided(result);
  else
    assemble_full(result);
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
