// Shared by the bench programs: print_case_study prints one of the
// paper's case studies as a worksheet with predicted and simulated actual
// columns, and BenchJson writes the rat.bench.v1 record that
// bench_parallel_scaling and bench_explore_pruning emit.
#pragma once

#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "apps/case_study.hpp"
#include "apps/hw_run.hpp"
#include "core/throughput.hpp"
#include "core/units.hpp"
#include "core/validation.hpp"
#include "core/worksheet.hpp"

namespace rat::bench {

/// Machine-readable perf trajectory, schema "rat.bench.v1": a flat map of
/// named scalar metrics plus the constant fields simd_backend ("scalar")
/// and simd_width (1), which the v1 schema keeps. scripts/check.sh writes
/// BENCH_RAT.json with this emitter and fails the run if the document is
/// missing or malformed (DESIGN.md, "Hot path", describes the schema).
class BenchJson {
 public:
  /// @p path is the value of --json=PATH: absent, nothing is written.
  BenchJson(std::string bench_name, const std::optional<std::string>& path)
      : bench_(std::move(bench_name)), path_(path.value_or("")) {
    if (path && path->empty())
      throw std::invalid_argument("--json= needs a path");
  }

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
                             const apps::CaseStudy& cs) {
  const auto run = apps::simulate_on_platform(
      cs.workload, cs.platform, cs.actual_clock_hz, rcsim::Buffering::kSingle,
      cs.inputs.software.tsoft_sec);
  std::printf("==== %s (platform: %s) ====\n\n", title.c_str(),
              cs.platform.name.c_str());
  std::printf("%s\n", core::render_worksheet(
                          cs.inputs, {run.measured},
                          core::WorksheetMode::kSingleBuffered)
                          .c_str());
  const auto pred = core::predict(cs.inputs, cs.actual_clock_hz);
  const auto rep = core::validate(pred, run.measured);
  std::printf("Prediction error at %.0f MHz (simulated actual):\n%s\n",
              core::to_mhz(cs.actual_clock_hz),
              rep.to_table().to_ascii().c_str());
}

}  // namespace rat::bench
