// The long-running RAT prediction service (library side).
//
// Accepts rat.svc.v1 request lines (svc/protocol.hpp), validates
// worksheets through the strict core parser / io loader, executes
// evaluations on the shared util::ThreadPool, and memoizes results in a
// sharded LRU keyed by canonical worksheet fingerprint. Transport is
// someone else's job (svc/server.hpp, or a test calling submit
// directly) — this class is the part every future sharding or
// multi-backend layer plugs into.
//
// Contract: submit() calls on_response with exactly one response line
// per request, in every path —
//
//   * protocol errors, admission rejections (E_OVERLOADED), drain
//     rejections (E_SHUTTING_DOWN) and the ping/stats/shutdown ops are
//     answered inline, on the submitting thread;
//   * evaluations are answered later, on a thread-pool worker.
//
// Admission control: at most queue_capacity evaluations may be queued or
// running; the excess is rejected immediately with a structured
// E_OVERLOADED response instead of queueing unboundedly. Deadlines are
// checked when the evaluation is dequeued: a request that waited past
// its deadline is answered E_DEADLINE_EXPIRED without being evaluated
// (running evaluations are never aborted mid-flight — predict_all is
// microseconds, preemption would cost more than it saves).
//
// Graceful drain: begin_drain() stops admission (subsequent requests get
// E_SHUTTING_DOWN), wait_drained() blocks until every admitted
// evaluation has delivered its response. The destructor drains.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "svc/cache.hpp"
#include "svc/protocol.hpp"

namespace rat::svc {

class PersistentResultCache;

struct ServiceConfig {
  std::size_t cache_capacity = 1024;   ///< result-cache entries (0 = off)
  std::size_t cache_shards = 8;
  std::size_t queue_capacity = 256;    ///< max queued+running evaluations
  double default_deadline_ms = 0.0;    ///< applied when a request sets none
                                       ///< (0 = no deadline)
  /// Durable cache directory (docs/STORE.md). Empty = in-memory only.
  /// When set, the cache is warm-started from the store at construction
  /// and every genuine insert is journaled; construction throws
  /// store::StoreError if the directory is unusable or its snapshot is
  /// corrupt.
  std::string cache_dir{};
};

class Service {
 public:
  struct Stats {
    std::uint64_t requests = 0;          ///< lines submitted
    std::uint64_t responses_ok = 0;
    std::uint64_t responses_error = 0;   ///< all structured errors
    std::uint64_t rejected_overloaded = 0;
    std::uint64_t rejected_draining = 0;
    std::uint64_t deadline_expired = 0;
    std::uint64_t in_flight = 0;         ///< admitted, response not yet sent
    std::uint64_t cache_warmed = 0;      ///< entries restored at startup
    ResultCache::Stats cache;
    // Exported at drain (docs/SERVICE.md), not rendered by the stats op.
    std::uint64_t delivery_failed = 0;   ///< on_response threw
    std::uint64_t in_flight_max = 0;     ///< high-water mark of in_flight
  };

  explicit Service(ServiceConfig config = {});

  /// Drains: blocks until every admitted evaluation has responded.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Handle one request line; @p on_response receives exactly one
  /// response line (no trailing newline), inline or from a pool worker
  /// (see file comment). @p on_response must be callable from any
  /// thread and must not throw (exceptions are swallowed and counted).
  void submit(const std::string& line,
              std::function<void(std::string)> on_response);

  /// Invoked (from the submitting thread, after the response) when a
  /// shutdown op arrives. Without a handler, a shutdown op begins
  /// draining directly.
  void set_shutdown_handler(std::function<void()> handler);

  void begin_drain();   ///< stop admitting; idempotent
  void wait_drained();  ///< block until in_flight == 0
  void drain();         ///< begin_drain() + wait_drained()
  bool draining() const;

  Stats stats() const;
  const ServiceConfig& config() const { return config_; }

  /// Drop every cached result; the cache counters keep counting (tests).
  void clear_cache() { cache_.clear(); }

 private:
  void run_evaluation(Request request, std::uint64_t deadline_ns,
                      std::function<void(std::string)> on_response);
  void finish_one();
  /// Deliver a response line through @p on_response, counting outcome.
  void respond(const std::function<void(std::string)>& on_response,
               std::string line, bool ok);

  ServiceConfig config_;
  ResultCache cache_;
  std::unique_ptr<PersistentResultCache> persist_;  ///< null when in-memory
  std::size_t warmed_ = 0;

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;
  std::size_t in_flight_ = 0;
  std::size_t in_flight_max_ = 0;
  bool draining_ = false;
  std::function<void()> shutdown_handler_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> responses_ok_{0};
  std::atomic<std::uint64_t> responses_error_{0};
  std::atomic<std::uint64_t> rejected_overloaded_{0};
  std::atomic<std::uint64_t> rejected_draining_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> delivery_failed_{0};
};

}  // namespace rat::svc
