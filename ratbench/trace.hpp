// In-memory spans recorded by the benchmark around its own calls into a
// layer's public functions. A span has a name, a start, an end, the span
// that caused it (its parent) and the request or campaign id it belongs
// to. Spans stay in memory until write_jsonl() at the end of a run.
//
// Spans nest strictly on one thread (the benchmark's replay loops are
// single-threaded), so a span's self time is its duration minus the sum
// of its direct children's durations.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace ratbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";  ///< a string literal
  std::uint64_t id = 0;   ///< request or campaign id
  int parent = -1;        ///< index into the tracer's spans; -1 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class Tracer {
 public:
  /// Open a span under the innermost open span; returns its index.
  int begin(const char* name, std::uint64_t id) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, id, parent, now_ns(), 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  /// Record an interval measured elsewhere (e.g. ended on another
  /// thread) as a child of the innermost open span.
  void add(const char* name, std::uint64_t id, std::uint64_t start_ns,
           std::uint64_t end_ns) {
    spans_.push_back(Span{name, id, open_.empty() ? -1 : open_.back(),
                          start_ns, end_ns});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time in nanoseconds of every span, grouped by span name.
  std::map<std::string, std::vector<double>> self_ns() const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
    std::map<std::string, std::vector<double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name].push_back(
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
          child_ns[i]);
    return out;
  }

  /// One JSON object per line: name, id, parent, start_ns, end_ns.
  bool write_jsonl(const std::string& path) const {
    std::ofstream f(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << "{\"i\":" << i << ",\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
    }
    return static_cast<bool>(f);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a tracer.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t id)
      : tracer_(tracer), index_(tracer.begin(name, id)) {}
  ~Scope() { tracer_.end(index_); }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace ratbench
