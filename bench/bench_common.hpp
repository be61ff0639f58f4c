// Shared helpers for the per-table benchmark binaries: build the rcsim
// workload for each case-study design and produce the paper-style
// worksheet with predicted and simulated-actual columns — plus the
// machine-readable perf-trajectory emitter (BENCH_RAT.json) that
// bench_parallel_scaling and bench_explore_pruning write.
#pragma once

#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>

#include "apps/hw_run.hpp"
#include "apps/md.hpp"
#include "apps/pdf1d.hpp"
#include "apps/pdf2d.hpp"
#include "apps/workload.hpp"
#include "core/throughput.hpp"
#include "core/units.hpp"
#include "core/validation.hpp"
#include "core/worksheet.hpp"
#include "rcsim/platform.hpp"

namespace rat::bench {

inline rcsim::Workload pdf1d_workload(const apps::Pdf1dDesign& d) {
  rcsim::Workload w;
  w.n_iterations = d.rat_inputs().software.n_iterations;
  w.io = [d, n = w.n_iterations](std::size_t i) { return d.io(i, n); };
  w.cycles = [c = d.cycles_per_iteration()](std::size_t) { return c; };
  return w;
}

inline rcsim::Workload pdf2d_workload(const apps::Pdf2dDesign& d) {
  rcsim::Workload w;
  w.n_iterations = d.rat_inputs().software.n_iterations;
  w.io = [d, n = w.n_iterations](std::size_t i) { return d.io(i, n); };
  w.cycles = [c = d.cycles_per_iteration()](std::size_t) { return c; };
  return w;
}

inline rcsim::Workload md_workload(const apps::MdDesign& d,
                                   std::uint64_t cycles,
                                   std::size_t n_molecules) {
  rcsim::Workload w;
  w.n_iterations = 1;
  w.io = [d, n_molecules](std::size_t) { return d.io(n_molecules); };
  w.cycles = [cycles](std::size_t) { return cycles; };
  return w;
}

/// Machine-readable perf trajectory, schema "rat.bench.v1": a flat map of
/// named scalar metrics plus the constant fields simd_backend ("scalar")
/// and simd_width (1), which the v1 schema keeps. scripts/check.sh writes
/// BENCH_RAT.json with this emitter and fails the run if the document is
/// missing or malformed (DESIGN.md, "Hot path", describes the schema).
class BenchJson {
 public:
  /// Strip a `--json=PATH` argument before benchmark::Initialize sees it
  /// (google-benchmark rejects flags it does not know). Returns the path,
  /// or "" when the flag is absent — emission is opt-in.
  static std::string extract_json_path(int& argc, char** argv) {
    std::string path;
    int w = 1;
    for (int r = 1; r < argc; ++r) {
      const std::string arg = argv[r];
      if (arg.rfind("--json=", 0) == 0) {
        path = arg.substr(7);
        if (path.empty())
          throw std::invalid_argument("--json= needs a path");
      } else {
        argv[w++] = argv[r];
      }
    }
    argc = w;
    return path;
  }

  BenchJson(std::string bench_name, std::string path)
      : bench_(std::move(bench_name)), path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }
  void add(const std::string& key, double value) { metrics_[key] = value; }

  /// Write the document (no-op without --json). Round-trip double
  /// formatting so the trajectory survives re-parsing exactly.
  void write() const {
    if (!enabled()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr)
      throw std::runtime_error("BenchJson: cannot open " + path_);
    std::fprintf(f,
                 "{\n  \"schema\": \"rat.bench.v1\",\n  \"bench\": \"%s\",\n"
                 "  \"simd_backend\": \"scalar\",\n  \"simd_width\": 1,\n"
                 "  \"metrics\": {",
                 bench_.c_str());
    bool first = true;
    for (const auto& [key, value] : metrics_) {
      char num[32];
      std::snprintf(num, sizeof num, "%.17g", value);
      // A whole value such as 0 allocations is written "0.0", so every
      // metric reads back as a JSON float.
      const bool whole = std::strpbrk(num, ".eEn") == nullptr;
      std::fprintf(f, "%s\n    \"%s\": %s%s", first ? "" : ",", key.c_str(),
                   num, whole ? ".0" : "");
      first = false;
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu metrics)\n", path_.c_str(), metrics_.size());
  }

 private:
  std::string bench_;
  std::string path_;
  std::map<std::string, double> metrics_;  // sorted => deterministic bytes
};

/// Print a full worksheet (inputs + predicted columns + simulated actual)
/// for one case study, in the layout of paper Tables 2+3 / 5+6 / 8+9.
inline void print_case_study(const std::string& title,
                             const core::RatInputs& inputs,
                             const rcsim::Workload& workload,
                             const rcsim::Platform& platform,
                             double actual_clock_hz) {
  const auto run = apps::simulate_on_platform(
      workload, platform, actual_clock_hz, rcsim::Buffering::kSingle,
      inputs.software.tsoft_sec);
  std::printf("==== %s (platform: %s) ====\n\n", title.c_str(),
              platform.name.c_str());
  std::printf("%s\n", core::render_worksheet(
                          inputs, {run.measured},
                          core::WorksheetMode::kSingleBuffered)
                          .c_str());
  const auto pred = core::predict(inputs, actual_clock_hz);
  const auto rep = core::validate(pred, run.measured);
  std::printf("Prediction error at %.0f MHz (simulated actual):\n%s\n",
              core::to_mhz(actual_clock_hz), rep.to_table().to_ascii().c_str());
}

}  // namespace rat::bench
