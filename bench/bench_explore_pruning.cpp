// The explorer against the exhaustive sweep on a grid two orders of
// magnitude larger than the paper's: 64 pipeline counts x 32 clock
// estimates x 8 fixed-point widths = 16,384 permutations. The report
// verifies the explorer returns the byte-identical winner and trace,
// counts how many full gate-pipeline evaluations the throughput gate
// spares (the headline: >= 10x fewer), and replays the whole campaign
// from a warm plan cache (>= 90% of the remaining evaluations
// eliminated). --json=PATH writes them as a rat.bench.v1 record;
// scripts/check.sh merges its explore.* metrics into BENCH_RAT.json and
// gates on them.
//
// Usage: bench_explore_pruning [--json=PATH]
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>

#include "bench_common.hpp"
#include "core/designspace.hpp"
#include "core/parameters.hpp"
#include "core/units.hpp"
#include "explore/explorer.hpp"
#include "util/cli.hpp"

namespace {

using namespace rat;

core::DesignAxes bench_axes() {
  core::DesignAxes axes;
  axes.parallelism.clear();
  axes.fclock_hz.clear();
  axes.format_bits.clear();
  for (int p = 1; p <= 64; ++p) axes.parallelism.push_back(p);
  for (int i = 0; i < 32; ++i)
    axes.fclock_hz.push_back(core::mhz(80.0 + 5.0 * i));
  for (int b = 10; b <= 24; b += 2) axes.format_bits.push_back(b);
  return axes;
}

// Monotone along every axis, the shape Eqs. 5-6 give the case studies:
// speedup rises with parallelism and clock, falls with format width.
core::CandidateFactory bench_factory() {
  return [base = core::pdf1d_inputs()](const core::DesignPoint& p)
             -> std::optional<core::DesignCandidate> {
    core::DesignCandidate c;
    c.inputs = base;
    c.inputs.name = p.label();
    c.inputs.comp.throughput_ops_per_cycle =
        0.35 * static_cast<double>(p.parallelism);
    c.inputs.dataset.bytes_per_element =
        static_cast<double>((p.format_bits + 7) / 8);
    c.resources = {core::ResourceItem{"units", 1, p.format_bits, 0, 400,
                                      static_cast<int>(p.parallelism)}};
    return c;
  };
}

core::Requirements bench_requirements() {
  core::Requirements req;
  req.min_speedup = 8.0;
  return req;
}

std::string render(const core::DesignSpaceResult& r) {
  std::string out = r.outcome.render_trace();
  out += r.outcome.proceed ? "|proceed" : "|exhausted";
  for (const auto& p : r.outcome.predictions)
    out.append(reinterpret_cast<const char*>(&p), sizeof p);
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void print_report(const std::optional<std::string>& json_path) {
  bench::BenchJson json("bench_explore_pruning", json_path);
  const auto axes = bench_axes();
  const auto factory = bench_factory();
  const auto req = bench_requirements();
  const auto device = rcsim::virtex4_lx100();

  auto t0 = std::chrono::steady_clock::now();
  const auto exhaustive =
      core::explore_design_space(axes, factory, req, device);
  const double exhaustive_sec = seconds_since(t0);
  // The exhaustive scan runs the full gate pipeline on every non-skipped
  // point it reaches; predictions holds exactly one entry per such run
  // (the trace can carry several gate lines for one candidate).
  const double exhaustive_evals =
      static_cast<double>(exhaustive.outcome.predictions.size());

  t0 = std::chrono::steady_clock::now();
  const auto pruned =
      explore::explore_design_space_pruned(axes, factory, req, device);
  const double pruned_sec = seconds_since(t0);
  const bool identical = render(pruned.design) == render(exhaustive) &&
                         pruned.winner_index == exhaustive.outcome.accepted_index;

  // Cold then warm through a plan cache: the warm campaign should replay
  // every previously evaluated point instead of recomputing it.
  const auto cache_dir =
      std::filesystem::temp_directory_path() / "rat_bench_explore_plan_cache";
  std::filesystem::remove_all(cache_dir);
  explore::ExploreStats cold, warm;
  {
    explore::PlanCache cache(cache_dir);
    explore::ExploreOptions opt;
    opt.plan_cache = &cache;
    cold = explore::explore_design_space_pruned(axes, factory, req, device, opt)
               .stats;
  }
  {
    explore::PlanCache cache(cache_dir);  // fresh handle, same directory
    explore::ExploreOptions opt;
    opt.plan_cache = &cache;
    warm = explore::explore_design_space_pruned(axes, factory, req, device, opt)
               .stats;
  }
  std::filesystem::remove_all(cache_dir);

  const auto& st = pruned.stats;
  const double pruned_evals = static_cast<double>(st.points_evaluated);
  const double reduction = exhaustive_evals / std::max(1.0, pruned_evals);
  const double cold_evals = static_cast<double>(cold.points_evaluated);
  const double warm_evals = static_cast<double>(warm.points_evaluated);
  const double warm_elimination =
      cold_evals > 0.0 ? (cold_evals - warm_evals) / cold_evals : 1.0;

  std::printf("\n==== explorer vs exhaustive on %zu permutations ====\n",
              st.points_total);
  std::printf("winner: %s (index %zu)\n",
              pruned.design.outcome.proceed
                  ? pruned.design.outcome.trace.back().candidate_name.c_str()
                  : "<none>",
              pruned.winner_index ? *pruned.winner_index : 0);
  std::printf("full evaluations: exhaustive %.0f, explorer %.0f (%.1fx "
              "fewer; the other %zu points fail the throughput gate)\n",
              exhaustive_evals, pruned_evals, reduction, st.points_bounded);
  std::printf("candidates predicted: exhaustive %zu, explorer %zu (the "
              "same ordered scan)\n",
              exhaustive.outcome.predictions.size(),
              pruned.design.outcome.predictions.size());
  std::printf("identical result: %s\n", identical ? "yes" : "NO — BUG");
  std::printf("wall clock: exhaustive %.3fs, explorer %.3fs\n",
              exhaustive_sec, pruned_sec);
  std::printf("plan cache: cold %.0f evaluations, warm %.0f "
              "(%.1f%% eliminated, %zu hits)\n",
              cold_evals, warm_evals, 100.0 * warm_elimination,
              warm.cache_hits);
  std::printf("pareto front: %zu points\n", pruned.front.size());

  json.add("explore.points_total", static_cast<double>(st.points_total));
  json.add("explore.exact_evals_exhaustive", exhaustive_evals);
  json.add("explore.exact_evals_pruned", pruned_evals);
  json.add("explore.evaluation_reduction", reduction);
  json.add("explore.identical", identical ? 1.0 : 0.0);
  json.add("explore.warm_evaluations", warm_evals);
  json.add("explore.warm_elimination_ratio", warm_elimination);
  json.add("explore.pareto_points", static_cast<double>(pruned.front.size()));
  json.add("explore.exhaustive_sec", exhaustive_sec);
  json.write();
}

}  // namespace

int main(int argc, char** argv) {
  const rat::util::Cli cli(argc, argv);
  cli.require_known({"json"});
  print_report(cli.get("json"));
  return 0;
}
