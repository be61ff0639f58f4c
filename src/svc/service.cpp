#include "svc/service.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "io/loader.hpp"
#include "obs/metrics.hpp"
#include "svc/fingerprint.hpp"
#include "svc/persist.hpp"
#include "util/thread_pool.hpp"

namespace rat::svc {

namespace {

/// Record one svc.request sample: the time a request was served for, on
/// the submitting thread and a pool worker together (queue wait left
/// out).
void record_request(std::uint64_t ns) {
  obs::Registry& r = obs::Registry::global();
  r.record_timer("svc.request", ns);
  r.record_hist("svc.request", ns);
}

}  // namespace

Service::Service(ServiceConfig config)
    : config_(config),
      cache_(config.cache_capacity, config.cache_shards) {
  if (!config_.cache_dir.empty()) {
    persist_ = std::make_unique<PersistentResultCache>(config_.cache_dir);
    warmed_ = persist_->warm(cache_);
  }
}

Service::~Service() { drain(); }

void Service::set_shutdown_handler(std::function<void()> handler) {
  std::lock_guard lock(mu_);
  shutdown_handler_ = std::move(handler);
}

void Service::respond(const Responder& on_response, std::string line,
                      bool ok) {
  (ok ? responses_ok_ : responses_error_)
      .fetch_add(1, std::memory_order_relaxed);
  try {
    on_response(std::move(line));
  } catch (...) {
    // The transport failed to deliver (e.g. client hung up). The
    // request was still answered from the service's point of view.
    delivery_failed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Service::submit(const std::string& line, Responder on_response,
                     Lookup lookup) {
  requests_.fetch_add(1, std::memory_order_relaxed);

  Job job;
  try {
    job.req = parse_request(line);
  } catch (const ProtocolError& e) {
    respond(on_response, error_response(e.id(), e.code(), e.what()),
            /*ok=*/false);
    return;
  }
  const Request& req = job.req;

  switch (req.op) {
    case Request::Op::kPing:
      respond(on_response, pong_response(req.id), /*ok=*/true);
      return;
    case Request::Op::kStats: {
      const Stats st = stats();
      // In kStatsNames order.
      const StatsCounters counters = {
          st.requests,         st.responses_ok,      st.responses_error,
          st.rejected_overloaded, st.rejected_draining, st.deadline_expired,
          st.in_flight,        st.cache.hits,        st.cache.misses,
          st.cache.evictions,  st.cache.size,        st.cache.bytes,
          cache_.capacity(),   st.cache_warmed};
      respond(on_response, stats_response(req.id, counters), /*ok=*/true);
      return;
    }
    case Request::Op::kShutdown: {
      respond(on_response, shutdown_response(req.id), /*ok=*/true);
      std::function<void()> handler;
      {
        std::lock_guard lock(mu_);
        handler = shutdown_handler_;
      }
      if (handler)
        handler();
      else
        begin_drain();
      return;
    }
    case Request::Op::kEvaluate:
      break;
  }

  // A file is read on the pool only: a slow path must not stall the
  // caller (the server's event loop). Nor may a long worksheet's parse.
  if (lookup == Lookup::kCaller && !req.has_file &&
      req.worksheet.size() <= kCallerMaxWorksheetBytes &&
      answer_on_caller(job, on_response))
    return;
  admit(std::move(job), std::move(on_response));
}

bool Service::parse(Job& job, const Responder& on_response) {
  // Inline text takes the same parse + validate path as a worksheet
  // file, so both get the same grammar and E_INVALID_VALUE diagnostics.
  const Request& req = job.req;
  try {
    core::RatInputs inputs =
        req.has_file ? io::load_worksheet(req.file)
                     : io::parse_worksheet_text(req.worksheet, "<request>");
    std::string key = canonical_text(inputs);
    const std::uint64_t fp = fnv1a64(key);
    job.parsed = Parsed{std::move(inputs), std::move(key), fp};
    return true;
  } catch (const core::ParseError& e) {
    respond(on_response, diagnostic_response(req.id, e.diagnostic()),
            /*ok=*/false);
    return false;
  }
}

bool Service::answer_on_caller(Job& job, const Responder& on_response) {
  if (draining()) return false;  // admit() answers E_SHUTTING_DOWN
  const std::uint64_t start_ns = obs::enabled() ? obs::now_ns() : 0;
  bool answered = true;
  try {
    if (parse(job, on_response)) {
      const Parsed& p = *job.parsed;
      // A journaled insert waits for an fsync, and a long clock list for
      // its predict_all: such a miss goes to the pool, parsed, and only
      // the pool's lookup counts it.
      const bool compute =
          !persist_ && p.inputs.comp.fclock_hz.size() <= kCallerMaxClocks;
      ResultCache::Entry hit;
      if (!job.req.no_cache)
        hit = compute ? cache_.lookup(p.key, p.fp) : cache_.probe(p.key, p.fp);
      if (hit)
        respond(on_response, hit_response(job.req.id, p, hit), /*ok=*/true);
      else if (compute)
        respond(on_response, miss_response(job.req, p), /*ok=*/true);
      else
        answered = false;
    }
  } catch (const std::exception& e) {
    respond(on_response, internal_error_response(job.req.id, e.what()),
            /*ok=*/false);
  }
  if (start_ns != 0) {
    const std::uint64_t ns = obs::now_ns() - start_ns;
    if (answered)
      record_request(ns);
    else
      job.lookup_ns = ns;
  }
  return answered;
}

std::string Service::hit_response(const std::string& id, const Parsed& p,
                                  const ResultCache::Entry& hit) {
  ResultCache::Tail tail = hit.tail;
  if (!tail) {
    // The entry's first hit renders the tail every later hit copies. A
    // concurrent first hit renders the same bytes; one attach wins.
    tail = std::make_shared<const std::string>(
        evaluate_tail(p.fp, p.inputs, *hit.value));
    cache_.attach_tail(p.key, p.fp, hit.value, tail);
  }
  return evaluate_response(id, *tail);
}

std::string Service::miss_response(const Request& req, const Parsed& p) {
  auto computed =
      std::make_shared<const std::vector<core::ThroughputPrediction>>(
          core::predict_all(p.inputs));
  if (!req.no_cache) {
    const ResultCache::PutOutcome outcome = cache_.put(p.key, p.fp, computed);
    // Journal only genuine inserts: a refresh means another worker
    // already computed (and persisted) this exact worksheet.
    if (persist_ && (outcome == ResultCache::PutOutcome::kInserted ||
                     outcome == ResultCache::PutOutcome::kInsertedEvicting))
      persist_->append(p.key, computed);
  }
  return evaluate_response(req.id, p.fp, p.inputs, *computed);
}

void Service::admit(Job job, Responder on_response) {
  // Admission control: bounded queue, reject rather than buffer. The
  // rejection is answered after the lock is released: on the server's
  // loop thread the answer is written to the client right away.
  const Request& req = job.req;
  bool draining = false;
  bool full = false;
  {
    std::lock_guard lock(mu_);
    draining = draining_;
    full = !draining && in_flight_ >= config_.queue_capacity;
    if (!draining && !full)
      in_flight_max_ = std::max(in_flight_max_, ++in_flight_);
  }
  if (draining) {
    rejected_draining_.fetch_add(1, std::memory_order_relaxed);
    respond(on_response,
            error_response(req.id, SvcErrorCode::kShuttingDown,
                           "service is draining"),
            /*ok=*/false);
    return;
  }
  if (full) {
    rejected_overloaded_.fetch_add(1, std::memory_order_relaxed);
    respond(on_response,
            error_response(req.id, SvcErrorCode::kOverloaded,
                           "admission queue full (" +
                               std::to_string(config_.queue_capacity) +
                               " requests queued or running); retry later"),
            /*ok=*/false);
    return;
  }

  const double deadline_ms =
      req.deadline_ms > 0.0 ? req.deadline_ms : config_.default_deadline_ms;
  std::uint64_t deadline_ns = 0;
  if (deadline_ms > 0.0) {
    // Clamp before the float->uint64 cast: a huge (or, from a config,
    // non-finite) deadline would otherwise be UB. ~292 years is plenty.
    constexpr double kMaxDelayNs = 9.2e18;  // < 2^63
    double delay_ns = deadline_ms * 1e6;
    if (!(delay_ns < kMaxDelayNs)) delay_ns = kMaxDelayNs;  // also inf/NaN
    deadline_ns = obs::now_ns() + static_cast<std::uint64_t>(delay_ns);
  }

  util::ThreadPool::shared().submit(
      [this, job = std::move(job), deadline_ns,
       on_response = std::move(on_response)]() mutable {
        run_evaluation(std::move(job), deadline_ns, std::move(on_response));
      });
}

void Service::run_evaluation(Job job, std::uint64_t deadline_ns,
                             Responder on_response) {
  const std::uint64_t start_ns = obs::enabled() ? obs::now_ns() : 0;
  const Request& req = job.req;
  try {
    if (deadline_ns != 0 && obs::now_ns() > deadline_ns) {
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      respond(on_response,
              error_response(req.id, SvcErrorCode::kDeadlineExpired,
                             "deadline expired before evaluation started"),
              /*ok=*/false);
    } else if (job.parsed || parse(job, on_response)) {
      const Parsed& p = *job.parsed;
      // Counted even after a caller-thread probe missed: a duplicate
      // queued behind an in-flight miss is answered from the cache.
      ResultCache::Entry hit;
      if (!req.no_cache) hit = cache_.lookup(p.key, p.fp);
      respond(on_response,
              hit ? hit_response(req.id, p, hit) : miss_response(req, p),
              /*ok=*/true);
    }
  } catch (const std::exception& e) {
    respond(on_response, internal_error_response(req.id, e.what()),
            /*ok=*/false);
  } catch (...) {
    respond(on_response,
            internal_error_response(req.id, "unknown internal error"),
            /*ok=*/false);
  }
  if (start_ns != 0) record_request(obs::now_ns() - start_ns + job.lookup_ns);
  finish_one();
}

void Service::finish_one() {
  std::lock_guard lock(mu_);
  if (--in_flight_ == 0) drained_cv_.notify_all();
}

void Service::begin_drain() {
  std::lock_guard lock(mu_);
  draining_ = true;
}

void Service::wait_drained() {
  obs::ScopedTimer timer("svc.drain");
  std::unique_lock lock(mu_);
  drained_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void Service::drain() {
  begin_drain();
  wait_drained();
}

bool Service::draining() const {
  std::lock_guard lock(mu_);
  return draining_;
}

Service::Stats Service::stats() const {
  Stats st;
  st.requests = requests_.load(std::memory_order_relaxed);
  st.responses_ok = responses_ok_.load(std::memory_order_relaxed);
  st.responses_error = responses_error_.load(std::memory_order_relaxed);
  st.rejected_overloaded =
      rejected_overloaded_.load(std::memory_order_relaxed);
  st.rejected_draining = rejected_draining_.load(std::memory_order_relaxed);
  st.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  st.delivery_failed = delivery_failed_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(mu_);
    st.in_flight = in_flight_;
    st.in_flight_max = in_flight_max_;
  }
  st.cache_warmed = warmed_;
  st.cache = cache_.stats();
  return st;
}

}  // namespace rat::svc
