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
#include "util/require.hpp"

namespace rat::explore {

namespace {

using core::CandidateEvaluation;
using core::DesignCandidate;

/// How a taken candidate was decided (docs/EXPLORATION.md): its own
/// prediction failed the throughput gate, the full gate pipeline ran, or
/// the plan cache replayed it. A candidate nothing takes counts as pruned.
enum class Fate : std::uint8_t { kBounded, kEvaluated, kRestored };

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
  // --- grid (elided runs only) --------------------------------------
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
    Fate fate = Fate::kEvaluated;
    std::string key;  ///< plan-cache key of a fresh evaluation
  };
  /// The per-candidate routine of the scan and the search's leaves: the
  /// throughput gate on the candidate's own prediction, then plan-cache
  /// replay, then the full gate pipeline. Safe on scan workers: it reads
  /// only the candidate and the thread-safe cache.
  Item evaluate(std::size_t ci, const DesignCandidate& cand,
                const core::ThroughputPrediction& pred) const;
  /// Take one candidate's item: count its fate and the cache effort, and
  /// store a fresh evaluation in the plan cache.
  void take(const Item& item);

  // --- assembly ------------------------------------------------------
  /// Record how many points the factory skipped; a grid it skipped whole
  /// is an error.
  void count_skipped(core::DesignSpaceResult& design) const;
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

  std::size_t total_ = 0;
  // The elided search's materialized grid. A full trace streams it and
  // holds none of these.
  std::size_t np_ = 0, nf_ = 0, nb_ = 0;
  std::vector<DesignCandidate> candidates_;
  std::vector<core::DesignPoint> points_;
  std::vector<std::ptrdiff_t> cand_of_point_;  ///< lex → candidate, -1 skip

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
  // The factory was already consulted by enumerate_design_space; recover
  // the lex → candidate mapping by walking the grid in the same order and
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
          cand_of_point_[lex(ip, ifc, ib)] =
              static_cast<std::ptrdiff_t>(next);
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
      for (std::size_t ib = b.lo[2]; ib <= b.hi[2]; ++ib)
        if (cand_of_point_[lex(ip, ifc, ib)] >= 0) ++stats_.points_bounded;
}

PrunedExploration::Item PrunedExploration::evaluate(
    std::size_t ci, const DesignCandidate& cand,
    const core::ThroughputPrediction& pred) const {
  Item item;
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
    Item item = evaluate(ci, candidates_[ci], preds.predictions[k]);
    take(item);
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

void PrunedExploration::count_skipped(core::DesignSpaceResult& design) const {
  design.points_skipped = design.skipped_labels.size();
  if (design.points_skipped == total_)
    throw std::invalid_argument(
        "explore_design_space_pruned: factory skipped every point");
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
  core::OrderedScan ordered(options_.n_threads, total_);
  std::vector<DesignCandidate> window;
  window.reserve(std::min(ordered.window(), total_));
  bool over = false;
  std::exception_ptr error;
  auto scan_window = [&] {
    try {
      over = ordered.step(
          window, 0, window.size(),
          [this](std::size_t ci, const DesignCandidate& cand,
                 const core::ThroughputPrediction& pred) {
            return evaluate(ci, cand, pred);
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
  core::walk_design_space(
      axes_, factory_, &result.design.skipped_labels,
      [&](const core::DesignPoint&, DesignCandidate&& cand) {
        if (over) return;
        window.push_back(std::move(cand));
        if (window.size() == ordered.window()) scan_window();
      });
  if (!window.empty()) scan_window();
  count_skipped(result.design);
  if (error) std::rethrow_exception(error);
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
  stats_.points_skipped = result.design.points_skipped;
  // Every candidate the factory built and nothing took: past the winner
  // or, in an elided run, invalid at a leaf.
  stats_.points_pruned = total_ - stats_.points_skipped -
                         stats_.points_bounded - stats_.points_evaluated -
                         stats_.points_restored;
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
  util::require_positive(req_.min_speedup,
                         "explore_design_space_pruned: min_speedup <= 0");
  ExploreResult result;
  total_ = axes_.size();
  result.design.points_total = total_;
  cache_ = options_.plan_cache;
  if (cache_) context_fp_ = io::requirements_fingerprint(req_, device_);

  if (policy_.prune && !policy_.full_trace) {
    candidates_ = core::enumerate_design_space(
        axes_, factory_, &result.design.skipped_labels, &points_);
    count_skipped(result.design);
    build_grid();
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
