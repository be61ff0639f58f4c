#include "explore/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "core/evaluation.hpp"
#include "io/codec.hpp"
#include "obs/metrics.hpp"

namespace rat::explore {

namespace {

using core::CandidateEvaluation;
using core::DesignCandidate;

/// Final disposition of one grid point (docs/EXPLORATION.md). kUntouched
/// points become points_pruned: neither the scan nor the search reached
/// them (they lie past the winner), or an elided run's leaf met them and
/// they failed validation.
enum PointStatus : std::uint8_t {
  kUntouched = 0,
  kSkippedPoint,
  /// A throughput rejection, proven by a corner bound or by the point's
  /// own prediction.
  kBoundedPoint,
  kEvaluatedPoint,
  kRestoredPoint,
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

  // --- search (elided runs only) ------------------------------------
  void search();
  std::optional<std::size_t> min_cand_in_box(const Box& b) const;
  struct Bound {
    double lb = 0.0, ub = 0.0;
  };
  std::optional<Bound> corner_bound(const Box& b);
  void mark_bounded(const Box& b);
  void leaf_evaluate(const Box& b);

  // --- one candidate -------------------------------------------------
  struct Item {
    CandidateEvaluation ev;
    PointStatus status = kEvaluatedPoint;
    std::string key;  ///< plan-cache key of a fresh evaluation
  };
  /// The per-candidate routine of the scan and the search's leaves: the
  /// throughput gate on the candidate's own prediction, then plan-cache
  /// replay, then the full gate pipeline. Safe on scan workers: it reads
  /// only the candidates and the thread-safe cache.
  Item evaluate(std::size_t ci, const core::ThroughputPrediction& pred) const;
  /// Take one candidate's item: record its point's fate and the cache
  /// effort, and store a fresh evaluation in the plan cache.
  void take(std::size_t ci, const Item& item);

  // --- assembly ------------------------------------------------------
  void scan(ExploreResult& result);
  void assemble_elided(ExploreResult& result);
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
  /// The search's leaf evaluations, by candidate index.
  std::unordered_map<std::size_t, CandidateEvaluation> memo_;
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

PrunedExploration::Item PrunedExploration::evaluate(
    std::size_t ci, const core::ThroughputPrediction& pred) const {
  const DesignCandidate& cand = candidates_[ci];
  Item item;
  // The point's own prediction is an exact bound on itself: the gate's
  // rejection is byte-identical to a full evaluation's, at none of the
  // deeper gates' cost, and it is cheaper to recompute than to store.
  if (!core::apply_throughput_gate(item.ev, ci, cand.inputs.name, req_,
                                   pred)) {
    item.status = kBoundedPoint;
    return item;
  }
  if (cache_) {
    item.key = cache_key(cand);
    if (auto ev = cache_->lookup(item.key, ci, cand.inputs.name)) {
      item.ev = std::move(*ev);
      item.status = kRestoredPoint;
      return item;
    }
  }
  item.ev = core::evaluate_candidate(ci, cand, req_, device_, pred);
  return item;
}

void PrunedExploration::take(std::size_t ci, const Item& item) {
  status_[lex_of_cand_[ci]] = item.status;
  if (!cache_ || item.status == kBoundedPoint) return;
  if (item.status == kRestoredPoint) {
    ++stats_.cache_hits;
    return;
  }
  ++stats_.cache_misses;
  cache_->insert(item.key, item.ev);
  ++stats_.cache_puts;
}

void PrunedExploration::leaf_evaluate(const Box& b) {
  std::vector<std::size_t> cids;
  for (std::size_t ip = b.lo[0]; ip <= b.hi[0]; ++ip)
    for (std::size_t ifc = b.lo[1]; ifc <= b.hi[1]; ++ifc)
      for (std::size_t ib = b.lo[2]; ib <= b.hi[2]; ++ib) {
        const std::ptrdiff_t ci = cand_of_point_[lex(ip, ifc, ib)];
        if (ci >= 0) cids.push_back(static_cast<std::size_t>(ci));
      }
  if (cids.empty()) return;
  core::WindowPredictions preds;
  preds.fill(candidates_, cids);
  // cids ascend with the box's lex order, so the first full pass makes
  // every later leaf point prunable on the spot.
  for (std::size_t k = 0; k < cids.size(); ++k) {
    const std::size_t ci = cids[k];
    if (incumbent_ && ci > *incumbent_) break;
    // A candidate whose worksheet fails validation cannot pass, and an
    // elided run does not throw for it: it stays untouched.
    if (preds.errors[k]) continue;
    Item item = evaluate(ci, preds.predictions[k]);
    take(ci, item);
    if (item.ev.passed && (!incumbent_ || ci < *incumbent_)) incumbent_ = ci;
    memo_.emplace(ci, std::move(item.ev));
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

void PrunedExploration::scan(ExploreResult& result) {
  obs::ScopedTimer timer("explore.assemble");
  core::MethodologyOutcome& out = result.design.outcome;
  core::scan_in_order(
      candidates_, options_.n_threads,
      [this](std::size_t ci, const core::ThroughputPrediction& pred) {
        return evaluate(ci, pred);
      },
      [&](std::size_t ci, Item&& item) {
        take(ci, item);
        return core::append_evaluation(out, ci, std::move(item.ev));
      });
  if (out.proceed) result.winner_index = out.accepted_index;
}

void PrunedExploration::assemble_elided(ExploreResult& result) {
  obs::ScopedTimer timer("explore.assemble");
  core::MethodologyOutcome& out = result.design.outcome;
  std::vector<std::size_t> order;
  order.reserve(memo_.size());
  for (const auto& [ci, ev] : memo_) order.push_back(ci);
  std::sort(order.begin(), order.end());
  for (const std::size_t ci : order) {
    if (incumbent_ && ci > *incumbent_) break;
    // The sparse trace still names real enumeration indices; the accepted
    // index addresses the sparse predictions vector.
    if (core::append_evaluation(out, out.predictions.size(),
                                std::move(memo_.at(ci)))) {
      result.winner_index = ci;
      break;
    }
  }
}

void PrunedExploration::finalize(ExploreResult& result) {
  stats_.points_total = total_;
  // A rejected candidate's trace holds exactly one failing gate entry.
  for (const core::TraceEntry& e : result.design.outcome.trace) {
    if (e.passed) continue;
    switch (e.step) {
      case core::Step::kThroughputTest: ++stats_.rejected_throughput; break;
      case core::Step::kPrecisionTest: ++stats_.rejected_precision; break;
      case core::Step::kResourceTest: ++stats_.rejected_resource; break;
      case core::Step::kPowerTest: ++stats_.rejected_power; break;
      default: break;
    }
  }
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

  if (policy_.prune && !policy_.full_trace) {
    search();
    assemble_elided(result);
  } else {
    scan(result);
  }
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
