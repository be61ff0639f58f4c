// Iterative design-space exploration with the Figure-1 methodology.
//
// The paper: "RAT is applied iteratively during the design process until a
// suitable version of the algorithm is formulated or all reasonable
// permutations are exhausted." This example sweeps the 1-D PDF design's
// axes — pipeline count x clock estimate — through the design-space
// explorer, cheapest point first, and lets the state machine settle on
// the first permutation that passes the throughput, precision and
// resource tests. Every permutation up to the winner appears in the
// trace, as the exhaustive scan prints it (docs/EXPLORATION.md). stderr
// reports the explorer's effort counters.
//
// Usage: design_space_exploration [--goal=9] [--tolerance=2.0] [--threads=N]
//                                 [--metrics=<path>]
//                                 [--plan-cache=<dir>] [--throttle-ms=N]
//   --threads=0 sizes the worker count automatically (RAT_THREADS override
//   or hardware concurrency); the outcome is identical at any thread count.
//   --plan-cache persists every full evaluation in a content-addressed
//   DurableStore keyed by candidate+requirements+device fingerprints, so
//   a rerun — after a crash, or of an overlapping campaign — replays
//   instead of recomputing and produces byte-identical output. Survives
//   kill -9 (it rides the store's journal); changing the goal, tolerance
//   or device changes every key, so stale entries are never replayed.
//   --throttle-ms sleeps that long inside each precision kernel run,
//   slowing evaluations down so crash-recovery harnesses can interrupt a
//   live campaign deterministically.
//   --metrics (or the RAT_METRICS env var) writes a rat.metrics.v1 JSON
//   document with explore.* counters and evaluation timers.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "apps/pdf1d.hpp"
#include "apps/workload.hpp"
#include "core/designspace.hpp"
#include "core/units.hpp"
#include "explore/explorer.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "store/error.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace rat;
  const util::Cli cli(argc, argv);
  const double goal = cli.get_double("goal", 9.0);
  const double tolerance = cli.get_double("tolerance", 2.0);
  const std::size_t threads = cli.get_size_t("threads", 1, 0, 256);
  const std::string plan_cache_dir = cli.get_or("plan-cache", "");
  const std::size_t throttle_ms = cli.get_size_t("throttle-ms", 0, 0, 60000);

  const std::string metrics_path = obs::enable_export(cli.get("metrics"));

  // Shared precision artifacts (numeric behaviour depends on the format,
  // not on the pipeline count).
  const auto samples =
      apps::gaussian_mixture_1d(8192, apps::default_mixture_1d(), 777);

  core::DesignAxes axes;
  axes.parallelism = {1, 2, 4, 8, 16};
  axes.fclock_hz = {core::mhz(100), core::mhz(150)};
  axes.format_bits = {18};

  const core::CandidateFactory factory =
      [&samples, throttle_ms](const core::DesignPoint& p)
      -> std::optional<core::DesignCandidate> {
    if (apps::Pdf1dConfig{}.n_bins % p.parallelism != 0)
      return std::nullopt;  // bins must divide across the pipelines
    const apps::Pdf1dDesign design(apps::Pdf1dConfig{}, p.parallelism);
    core::DesignCandidate c;
    c.inputs = design.rat_inputs();
    c.inputs.name.clear();  // use the generated point label
    // 3 ops per pipeline per cycle, derated ~17% as the paper does.
    c.inputs.comp.throughput_ops_per_cycle =
        3.0 * static_cast<double>(p.parallelism) * 0.83;
    c.precision_reference =
        apps::estimate_pdf1d_quadratic(samples, design.config());
    c.precision_kernel = [design, &samples, throttle_ms](fx::Format fmt) {
      if (throttle_ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(throttle_ms));
      return design.estimate_with_format(samples, fmt);
    };
    c.resources = design.resource_items();
    return c;
  };

  core::Requirements req;
  req.min_speedup = goal;
  req.precision = core::PrecisionRequirements{tolerance, 12, 20, 0};

  core::DesignSpaceResult result;
  try {
    std::unique_ptr<explore::PlanCache> cache;
    if (!plan_cache_dir.empty())
      cache = std::make_unique<explore::PlanCache>(plan_cache_dir);
    explore::ExploreOptions opt;
    opt.n_threads = threads;
    opt.plan_cache = cache.get();
    const auto explored = explore::explore_design_space_pruned(
        axes, factory, req, rcsim::virtex4_lx100(), opt);
    result = explored.design;
    const auto& st = explored.stats;
    std::fprintf(stderr,
                 "explore: evaluated %zu bounded %zu restored %zu "
                 "pruned %zu of %zu (cache hits %zu puts %zu)\n",
                 st.points_evaluated, st.points_bounded, st.points_restored,
                 st.points_pruned, st.points_total, st.cache_hits,
                 st.cache_puts);
  } catch (const store::StoreError& e) {
    std::fprintf(stderr, "design_space_exploration: %s\n", e.what());
    return 1;
  }

  std::printf("explored %zu of %zu permutations (%zu skipped) against a "
              "%.1fx goal:\n\n%s\n",
              result.points_total - result.points_skipped,
              result.points_total, result.points_skipped, goal,
              result.outcome.render_trace().c_str());
  if (result.outcome.proceed) {
    const auto idx = *result.outcome.accepted_index;
    std::printf("accepted: %s — predicted speedup %.1f\n",
                result.outcome.trace.back().candidate_name.c_str(),
                result.outcome.predictions[idx].speedup_sb);
  } else {
    std::printf("all reasonable permutations exhausted without a "
                "satisfactory solution.\nTry --goal below %.1f.\n",
                goal);
  }

  if (!metrics_path.empty()) {
    // Quiesce the pool so no worker's trailing counters miss the export.
    if (util::ThreadPool* pool = util::ThreadPool::shared_if_created())
      pool->wait_idle();
    io::write_metrics_file(metrics_path);
    std::fprintf(stderr, "metrics (%s):\n%s", metrics_path.c_str(),
                 obs::summary_table().c_str());
  }
  return 0;
}
