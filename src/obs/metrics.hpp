// Low-overhead observability: counters, gauges, timers, trace spans.
//
// The evaluation engine runs worksheets through a thread pool and batch
// runner; this layer answers "where does the time go" without perturbing
// the numbers it measures. Design rules:
//
//   * disabled by default — every instrumentation site is guarded by
//     enabled(), a single relaxed atomic load, so the uninstrumented hot
//     path costs one predictable branch;
//   * thread-safe by construction: the Registry stripes its maps across
//     mutex shards keyed by metric-name hash, so concurrent workers
//     updating different metrics rarely contend;
//   * metrics never influence results — instrumentation reads clocks and
//     writes the registry, nothing else, so predictions stay bit-identical
//     whether observability is on or off.
//
// obs records and renders only the human-readable summary table; io
// renders the `rat.metrics.v1` JSON document (io/json.hpp,
// docs/OBSERVABILITY.md). obs sits *below* util in the dependency order
// (util's thread pool is itself instrumented), so this header only uses
// the standard library.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/histogram.hpp"

namespace rat::obs {

/// Monotonic timestamp in nanoseconds (std::chrono::steady_clock).
std::uint64_t now_ns();

/// Small dense id for the calling thread (0, 1, 2, ... in first-use
/// order). Stable for the thread's lifetime; used to attribute spans.
std::uint32_t thread_index();

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when instrumentation sites should record. Relaxed load: callers
/// only need a stable on/off decision, not ordering.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flip collection on or off process-wide (default: off).
void set_enabled(bool on);

/// Value of the RAT_METRICS environment variable when set and non-empty:
/// the path metrics should be exported to (apps honour it as an implicit
/// --metrics). Returns nullptr otherwise.
const char* env_metrics_path();

/// Where a program run exports its metrics: @p flag (the --metrics value)
/// when given, else env_metrics_path(), else empty. A non-empty path
/// turns collection on. Throws std::invalid_argument when @p flag is an
/// empty path.
std::string enable_export(const std::optional<std::string>& flag);

/// Aggregated durations of one named operation.
struct TimerStat {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;

  double mean_ns() const {
    return count ? static_cast<double>(total_ns) / static_cast<double>(count)
                 : 0.0;
  }
};

/// One span-style trace event: a named interval on a specific thread.
struct SpanEvent {
  std::string name;
  std::string detail;  ///< e.g. the worksheet file the span covers
  std::uint32_t thread = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Thread-safe metric store. Counters, gauges and timers live in
/// lock-striped hash maps (shard chosen by name hash); spans go to a
/// bounded buffer that counts, rather than grows on, overflow.
class Registry {
 public:
  static constexpr std::size_t kDefaultSpanCapacity = 65536;

  explicit Registry(std::size_t span_capacity = kDefaultSpanCapacity);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every instrumentation site records into.
  static Registry& global();

  void add_counter(std::string_view name, std::uint64_t delta = 1);
  /// Last-write-wins gauge.
  void set_gauge(std::string_view name, double value);
  /// Keep the maximum ever observed (e.g. peak queue depth).
  void max_gauge(std::string_view name, double value);
  void record_timer(std::string_view name, std::uint64_t elapsed_ns);
  /// Record @p value_ns into a named log-bucketed latency histogram
  /// (obs/histogram.hpp) so the export carries percentiles, not just
  /// the TimerStat's count/mean/min/max.
  void record_hist(std::string_view name, std::uint64_t value_ns);
  /// Record a completed interval; the calling thread is attributed.
  void record_span(std::string_view name, std::string_view detail,
                   std::uint64_t start_ns, std::uint64_t dur_ns);

  // Snapshots (ordered, for deterministic export).
  std::map<std::string, std::uint64_t> counters() const;
  std::map<std::string, double> gauges() const;
  std::map<std::string, TimerStat> timers() const;
  std::map<std::string, LogHistogram> hists() const;
  /// Spans in recording order; at most the constructed capacity.
  std::vector<SpanEvent> spans() const;
  /// Spans discarded because the buffer was full.
  std::uint64_t spans_dropped() const;

  /// Drop every metric and span (tests; long-lived batch processes).
  void reset();

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::uint64_t> counters;
    std::unordered_map<std::string, double> gauges;
    std::unordered_map<std::string, TimerStat> timers;
    std::unordered_map<std::string, LogHistogram> hists;
  };
  static constexpr std::size_t kShards = 16;

  Shard& shard_for(std::string_view name);
  const Shard& shard_for(std::string_view name) const;

  std::array<Shard, kShards> shards_;

  mutable std::mutex span_mu_;
  std::size_t span_capacity_;
  std::vector<SpanEvent> spans_;
  std::uint64_t spans_dropped_ = 0;
};

/// Times a scope into Registry::global() when observability is enabled at
/// construction; a disabled timer costs the enabled() check and nothing
/// else. With a non-empty @p span_detail the interval is also recorded as
/// a span (detail typically names the item, e.g. a worksheet path). With
/// @p record_hist the duration additionally feeds the same-named latency
/// histogram, so the export carries percentiles for this operation.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name, std::string_view span_detail = {},
                       bool record_span = false, bool record_hist = false);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  bool active_;
  bool record_span_;
  bool record_hist_;
  std::string name_;
  std::string detail_;
  std::uint64_t start_ns_ = 0;
};

/// Human-readable summary: counters, gauges, then timers with
/// count/total/mean/min/max columns.
std::string summary_table(const Registry& registry = Registry::global());

}  // namespace rat::obs
