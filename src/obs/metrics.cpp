#include "obs/metrics.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <stdexcept>

namespace rat::obs {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

const char* env_metrics_path() {
  const char* v = std::getenv("RAT_METRICS");
  return (v && *v) ? v : nullptr;
}

std::string enable_export(const std::optional<std::string>& flag) {
  if (flag && flag->empty())
    throw std::invalid_argument("--metrics needs a path");
  std::string path = flag.value_or("");
  if (path.empty())
    if (const char* env = env_metrics_path()) path = env;
  if (!path.empty()) set_enabled(true);
  return path;
}

Registry::Registry(std::size_t span_capacity)
    : span_capacity_(span_capacity) {
  spans_.reserve(span_capacity_ < 1024 ? span_capacity_ : 1024);
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

Registry::Shard& Registry::shard_for(std::string_view name) {
  return shards_[std::hash<std::string_view>{}(name) % kShards];
}

const Registry::Shard& Registry::shard_for(std::string_view name) const {
  return shards_[std::hash<std::string_view>{}(name) % kShards];
}

void Registry::add_counter(std::string_view name, std::uint64_t delta) {
  Shard& s = shard_for(name);
  std::lock_guard lock(s.mu);
  s.counters[std::string(name)] += delta;
}

void Registry::set_gauge(std::string_view name, double value) {
  Shard& s = shard_for(name);
  std::lock_guard lock(s.mu);
  s.gauges[std::string(name)] = value;
}

void Registry::max_gauge(std::string_view name, double value) {
  Shard& s = shard_for(name);
  std::lock_guard lock(s.mu);
  auto [it, inserted] = s.gauges.emplace(std::string(name), value);
  if (!inserted && value > it->second) it->second = value;
}

void Registry::record_timer(std::string_view name,
                            std::uint64_t elapsed_ns) {
  Shard& s = shard_for(name);
  std::lock_guard lock(s.mu);
  TimerStat& t = s.timers[std::string(name)];
  if (t.count == 0) {
    t.min_ns = t.max_ns = elapsed_ns;
  } else {
    if (elapsed_ns < t.min_ns) t.min_ns = elapsed_ns;
    if (elapsed_ns > t.max_ns) t.max_ns = elapsed_ns;
  }
  ++t.count;
  t.total_ns += elapsed_ns;
}

void Registry::record_hist(std::string_view name, std::uint64_t value_ns) {
  Shard& s = shard_for(name);
  std::lock_guard lock(s.mu);
  auto it = s.hists.find(std::string(name));
  if (it == s.hists.end())
    it = s.hists.emplace(std::string(name), LogHistogram{}).first;
  it->second.record(value_ns);
}

void Registry::record_span(std::string_view name, std::string_view detail,
                           std::uint64_t start_ns, std::uint64_t dur_ns) {
  const std::uint32_t tid = thread_index();
  std::lock_guard lock(span_mu_);
  if (spans_.size() >= span_capacity_) {
    ++spans_dropped_;
    return;
  }
  spans_.push_back(SpanEvent{std::string(name), std::string(detail), tid,
                             start_ns, dur_ns});
}

std::map<std::string, std::uint64_t> Registry::counters() const {
  std::map<std::string, std::uint64_t> out;
  for (const Shard& s : shards_) {
    std::lock_guard lock(s.mu);
    out.insert(s.counters.begin(), s.counters.end());
  }
  return out;
}

std::map<std::string, double> Registry::gauges() const {
  std::map<std::string, double> out;
  for (const Shard& s : shards_) {
    std::lock_guard lock(s.mu);
    out.insert(s.gauges.begin(), s.gauges.end());
  }
  return out;
}

std::map<std::string, TimerStat> Registry::timers() const {
  std::map<std::string, TimerStat> out;
  for (const Shard& s : shards_) {
    std::lock_guard lock(s.mu);
    out.insert(s.timers.begin(), s.timers.end());
  }
  return out;
}

std::map<std::string, LogHistogram> Registry::hists() const {
  std::map<std::string, LogHistogram> out;
  for (const Shard& s : shards_) {
    std::lock_guard lock(s.mu);
    out.insert(s.hists.begin(), s.hists.end());
  }
  return out;
}

std::vector<SpanEvent> Registry::spans() const {
  std::lock_guard lock(span_mu_);
  return spans_;
}

std::uint64_t Registry::spans_dropped() const {
  std::lock_guard lock(span_mu_);
  return spans_dropped_;
}

void Registry::reset() {
  for (Shard& s : shards_) {
    std::lock_guard lock(s.mu);
    s.counters.clear();
    s.gauges.clear();
    s.timers.clear();
    s.hists.clear();
  }
  std::lock_guard lock(span_mu_);
  spans_.clear();
  spans_dropped_ = 0;
}

ScopedTimer::ScopedTimer(std::string_view name, std::string_view span_detail,
                         bool record_span, bool record_hist)
    : active_(enabled()), record_span_(record_span),
      record_hist_(record_hist) {
  if (!active_) return;
  name_ = name;
  detail_ = span_detail;
  start_ns_ = now_ns();
}

ScopedTimer::~ScopedTimer() {
  if (!active_) return;
  const std::uint64_t dur = now_ns() - start_ns_;
  Registry& r = Registry::global();
  r.record_timer(name_, dur);
  if (record_hist_) r.record_hist(name_, dur);
  if (record_span_) r.record_span(name_, detail_, start_ns_, dur);
}

namespace {

/// "1.234 ms"-style duration for the human summary.
std::string human_ns(double ns) {
  char buf[32];
  if (ns >= 1e9)
    std::snprintf(buf, sizeof buf, "%.3f s", ns / 1e9);
  else if (ns >= 1e6)
    std::snprintf(buf, sizeof buf, "%.3f ms", ns / 1e6);
  else if (ns >= 1e3)
    std::snprintf(buf, sizeof buf, "%.3f us", ns / 1e3);
  else
    std::snprintf(buf, sizeof buf, "%.0f ns", ns);
  return buf;
}

}  // namespace

std::string summary_table(const Registry& registry) {
  std::ostringstream os;
  char line[256];

  const auto counters = registry.counters();
  if (!counters.empty()) {
    os << "counters:\n";
    for (const auto& [name, value] : counters) {
      std::snprintf(line, sizeof line, "  %-36s %12" PRIu64 "\n",
                    name.c_str(), value);
      os << line;
    }
  }

  const auto gauges = registry.gauges();
  if (!gauges.empty()) {
    os << "gauges:\n";
    for (const auto& [name, value] : gauges) {
      std::snprintf(line, sizeof line, "  %-36s %12g\n", name.c_str(), value);
      os << line;
    }
  }

  const auto timers = registry.timers();
  if (!timers.empty()) {
    std::snprintf(line, sizeof line, "timers:%31s %10s %12s %12s %12s %12s\n",
                  "", "count", "total", "mean", "min", "max");
    os << line;
    for (const auto& [name, t] : timers) {
      std::snprintf(line, sizeof line,
                    "  %-36s %10" PRIu64 " %12s %12s %12s %12s\n",
                    name.c_str(), t.count,
                    human_ns(static_cast<double>(t.total_ns)).c_str(),
                    human_ns(t.mean_ns()).c_str(),
                    human_ns(static_cast<double>(t.min_ns)).c_str(),
                    human_ns(static_cast<double>(t.max_ns)).c_str());
      os << line;
    }
  }

  const auto hists = registry.hists();
  if (!hists.empty()) {
    std::snprintf(line, sizeof line, "hists:%32s %10s %12s %12s %12s %12s\n",
                  "", "count", "p50", "p90", "p99", "max");
    os << line;
    for (const auto& [name, h] : hists) {
      std::snprintf(line, sizeof line,
                    "  %-36s %10" PRIu64 " %12s %12s %12s %12s\n",
                    name.c_str(), h.count(),
                    human_ns(h.percentile(50.0)).c_str(),
                    human_ns(h.percentile(90.0)).c_str(),
                    human_ns(h.percentile(99.0)).c_str(),
                    human_ns(static_cast<double>(h.max())).c_str());
      os << line;
    }
  }

  const std::uint64_t dropped = registry.spans_dropped();
  std::snprintf(line, sizeof line,
                "spans: %zu recorded, %" PRIu64 " dropped\n",
                registry.spans().size(), dropped);
  os << line;
  return os.str();
}

}  // namespace rat::obs
