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
// A cache hit is answered from the entry's rendered tail (svc/cache.hpp):
// the entry's first hit renders the evaluate response after the id and
// attaches it, and every hit writes the head with its own id and copies
// the tail, so hit and miss bytes agree by construction. The stats
// op's cache bytes count the attached tails.
//
// Contract: submit() calls on_response with exactly one response line
// per request, in every path —
//
//   * protocol errors, admission rejections (E_OVERLOADED), drain
//     rejections (E_SHUTTING_DOWN) and the ping/stats/shutdown ops are
//     answered inline, on the submitting thread;
//   * evaluations are queued to the thread pool and answered there, on a
//     worker, except what a caller-thread lookup answers itself.
//
// Caller-thread lookup (Lookup::kCaller, what the server's event loop
// asks for on one line per poll turn): an inline worksheet is parsed,
// fingerprinted and looked up in the cache on the submitting thread. A
// hit, a worksheet diagnostic or a miss is answered before submit()
// returns: the miss is computed right there, by the routine the pool
// runs, so both give the same bytes. Two kinds of miss are queued
// instead, carrying their parsed inputs, key and fingerprint so the
// pool does not parse them again: a miss on a service with a durable
// store, whose insert is fsynced before it is answered, and a worksheet
// that lists more than kCallerMaxClocks candidate clocks. A request
// answered on the caller is never queued: it is not counted in
// in_flight, and it is never answered E_OVERLOADED or
// E_DEADLINE_EXPIRED. A draining service still answers E_SHUTTING_DOWN
// first. A file request is always queued: a read from a slow path must
// never stall the caller. So is a worksheet longer than
// kCallerMaxWorksheetBytes, before its parse.
//
// Every request counts one cache lookup: a miss computed on the caller
// is counted there, and a miss the caller queues is counted by the
// pool's repeat lookup instead (ResultCache::probe).
//
// Admission control: at most queue_capacity evaluations may be queued or
// running; the excess is rejected immediately with a structured
// E_OVERLOADED response instead of queueing unboundedly. Deadlines are
// checked when the evaluation is dequeued: a request that waited past
// its deadline is answered E_DEADLINE_EXPIRED without being evaluated
// and without a cache lookup (running evaluations are never aborted
// mid-flight — predict_all is microseconds, preemption would cost more
// than it saves). A dequeued evaluation looks the cache up again before
// computing, so a duplicate queued behind an in-flight miss is answered
// from the cache.
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
#include <optional>
#include <string>

#include "core/parameters.hpp"
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
  /// Where submit() parses, fingerprints and looks up an inline
  /// worksheet (see file comment).
  enum class Lookup {
    kPool,    ///< on the pool worker that evaluates it
    kCaller,  ///< on the submitting thread, which also computes a miss
              ///< unless the store journals it or its clock list is long
  };

  /// The most candidate clocks a miss may list to be computed on the
  /// caller: about 15 us of predict_all and render at ~0.8 us per clock
  /// (docs/SERVICE.md). A longer list is queued, so one line cannot hold
  /// the server's event loop for longer than that.
  static constexpr std::size_t kCallerMaxClocks = 16;

  /// The longest inline worksheet the caller parses and fingerprints:
  /// about 21 us for 2 KiB of clock values, the costliest bytes a
  /// worksheet holds (docs/SERVICE.md). A longer worksheet is queued
  /// unparsed, so one line cannot hold the event loop for its parse.
  /// Every fixture and load-test worksheet (about 310 bytes) and a
  /// 17-clock one (424 bytes) stay below it.
  static constexpr std::size_t kCallerMaxWorksheetBytes = 2048;

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
              std::function<void(std::string)> on_response,
              Lookup lookup = Lookup::kPool);

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
  /// A worksheet parsed once: its inputs, canonical text (the cache key)
  /// and fingerprint.
  struct Parsed {
    core::RatInputs inputs;
    std::string key;
    std::uint64_t fp = 0;
  };
  /// One evaluate request past the protocol parse.
  struct Job {
    Request req;
    std::optional<Parsed> parsed;  ///< set by a caller-thread lookup
    std::uint64_t lookup_ns = 0;   ///< caller-thread time, for svc.request
  };
  using Responder = std::function<void(std::string)>;

  /// Parse @p job's worksheet into job.parsed, or answer its diagnostic
  /// and return false.
  bool parse(Job& job, const Responder& on_response);
  /// The caller-thread lookup: true when @p job was answered here.
  bool answer_on_caller(Job& job, const Responder& on_response);
  /// A miss: compute @p p's predictions, insert them (journaling a
  /// genuine insert) unless the request says no_cache, and render the
  /// response. The caller and the pool both answer a miss with it.
  std::string miss_response(const Request& req, const Parsed& p);
  /// A cache hit's response: the head with @p id, then the entry's
  /// rendered tail, which the entry's first hit renders and attaches.
  std::string hit_response(const std::string& id, const Parsed& p,
                           const ResultCache::Entry& hit);
  /// Admission control, then queue @p job to the pool.
  void admit(Job job, Responder on_response);
  void run_evaluation(Job job, std::uint64_t deadline_ns,
                      Responder on_response);
  void finish_one();
  /// Deliver a response line through @p on_response, counting outcome.
  void respond(const Responder& on_response, std::string line, bool ok);

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
