// Service semantics: the exactly-one-response contract, cache hit/miss
// byte identity (hits served from the entry's rendered tail), bounded
// admission (E_OVERLOADED), deadlines, drain, the caller-thread lookup,
// and a concurrent hammer that runs TSan-clean.
#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/parameters.hpp"
#include "core/throughput.hpp"
#include "io/json.hpp"
#include "io/loader.hpp"
#include "loopback_client.hpp"
#include "obs/metrics.hpp"
#include "store/store.hpp"
#include "svc/fingerprint.hpp"
#include "util/thread_pool.hpp"

namespace rat::svc {
namespace {

/// Collects responses from any thread and lets the test block until a
/// given count has arrived.
class Collector {
 public:
  std::function<void(std::string)> sink() {
    return [this](std::string line) {
      std::lock_guard lock(mu_);
      lines_.push_back(std::move(line));
      cv_.notify_all();
    };
  }

  std::vector<std::string> wait_for(std::size_t n) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return lines_.size() >= n; });
    return lines_;
  }

  std::size_t count() {
    std::lock_guard lock(mu_);
    return lines_.size();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
};

std::string error_code_of(const std::string& line) {
  const io::JsonValue doc = io::parse_json(line);
  const io::JsonValue* err = doc.find("error");
  return err ? err->find("code")->string : "";
}

/// Occupies every shared-pool worker until release() so admitted
/// evaluations queue behind it deterministically.
class PoolBlocker {
 public:
  PoolBlocker() : n_(util::ThreadPool::shared().size()) {
    const std::shared_future<void> gate = release_.get_future().share();
    // Each task waits on its own copy of the gate, and its last touch of
    // this object is the left_ increment the destructor waits for.
    for (std::size_t i = 0; i < n_; ++i)
      util::ThreadPool::shared().submit([this, gate] {
        blocked_.fetch_add(1);
        gate.wait();
        left_.fetch_add(1);
      });
    while (blocked_.load() < n_) std::this_thread::yield();
  }

  void release() {
    if (!released_) release_.set_value();
    released_ = true;
  }

  ~PoolBlocker() {
    release();
    while (left_.load() < n_) std::this_thread::yield();
  }

 private:
  const std::size_t n_;
  std::promise<void> release_;
  std::atomic<std::size_t> blocked_{0};
  std::atomic<std::size_t> left_{0};
  bool released_ = false;
};

TEST(SvcService, CacheHitAndMissResponsesAreByteIdentical) {
  Service service({.cache_capacity = 16});
  Collector out;
  const std::string sheet = core::pdf1d_inputs().serialize();
  service.submit(evaluate_line("r", sheet), out.sink());
  out.wait_for(1);  // the miss completes before the hit is submitted
  service.submit(evaluate_line("r", sheet), out.sink());
  const auto lines = out.wait_for(2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], lines[1]);  // the acceptance requirement, literally
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);
  const Service::Stats st = service.stats();
  EXPECT_EQ(st.cache.misses, 1u);
  EXPECT_EQ(st.cache.hits, 1u);
  EXPECT_EQ(st.responses_ok, 2u);
}

TEST(SvcService, WarmStartedServiceAnswersByteIdenticallyToColdEvaluation) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "svc_service_warm_cache";
  std::filesystem::remove_all(dir);
  const std::string sheet = core::pdf1d_inputs().serialize();

  // Process 1: evaluate cold and persist.
  std::string cold;
  {
    Service service({.cache_capacity = 16, .cache_dir = dir.string()});
    Collector out;
    service.submit(evaluate_line("r", sheet), out.sink());
    cold = out.wait_for(1)[0];
    EXPECT_EQ(service.stats().cache_warmed, 0u);
  }
  // Process 2: the same request must hit the warmed cache and answer
  // byte-identically — the tentpole acceptance requirement, literally.
  {
    Service service({.cache_capacity = 16, .cache_dir = dir.string()});
    EXPECT_EQ(service.stats().cache_warmed, 1u);
    Collector out;
    service.submit(evaluate_line("r", sheet), out.sink());
    EXPECT_EQ(out.wait_for(1)[0], cold);
    const Service::Stats st = service.stats();
    EXPECT_EQ(st.cache.hits, 1u);
    EXPECT_EQ(st.cache.misses, 0u);  // never re-evaluated
  }
  std::filesystem::remove_all(dir);
}

TEST(SvcService, OnlyGenuineInsertsReachTheJournal) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "svc_service_journal_once";
  std::filesystem::remove_all(dir);
  const std::string sheet = core::pdf1d_inputs().serialize();
  {
    Service service({.cache_capacity = 16, .cache_dir = dir.string()});
    Collector out;
    // Same worksheet three times (serialized so each completes): one
    // insert, two cache hits.
    for (int i = 0; i < 3; ++i) {
      service.submit(evaluate_line("r" + std::to_string(i), sheet),
                     out.sink());
      out.wait_for(static_cast<std::size_t>(i) + 1);
    }
  }
  // The store must hold exactly one entry for the one distinct worksheet.
  store::DurableStore store(dir);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.open_info().journal_records, 1u);
}

TEST(SvcService, StatsExportCarriesCacheBytesAndHitRatio) {
  Service service({.cache_capacity = 16});
  Collector out;
  const std::string sheet = core::pdf1d_inputs().serialize();
  service.submit(evaluate_line("miss", sheet), out.sink());
  out.wait_for(1);
  service.submit(evaluate_line("hit", sheet), out.sink());
  out.wait_for(2);
  service.submit("{\"id\":\"s\",\"op\":\"stats\"}", out.sink());
  const auto lines = out.wait_for(3);
  const io::JsonValue doc = io::parse_json(lines[2]);
  const io::JsonValue* cache = doc.find("stats")->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("hit_ratio")->number, 0.5);
  EXPECT_GT(cache->find("bytes")->number, 0.0);
  ASSERT_NE(cache->find("warmed"), nullptr);
  EXPECT_EQ(cache->find("warmed")->number, 0.0);
}

std::string fixture_text(const std::string& stem) {
  std::ifstream f(std::filesystem::path(RAT_SOURCE_DIR) / "tests" /
                      "fixtures" / "worksheets" / (stem + ".rat"),
                  std::ios::binary);
  EXPECT_TRUE(f) << stem;
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

/// What the cache holds for a worksheet, computed without a service.
struct Expected {
  core::RatInputs inputs;
  std::string key;
  std::uint64_t fp = 0;
  std::vector<core::ThroughputPrediction> predictions;

  explicit Expected(const std::string& sheet)
      : inputs(io::parse_worksheet_text(sheet, "<request>")),
        key(canonical_text(inputs)),
        fp(fnv1a64(key)),
        predictions(core::predict_all(inputs)) {}

  /// The miss's bytes under @p id.
  std::string response(const std::string& id) const {
    return evaluate_response(id, fp, inputs, predictions);
  }
  std::uint64_t tail_bytes() const {
    return evaluate_tail(fp, inputs, predictions).size();
  }
  /// An entry's bytes before a hit attaches its tail.
  std::uint64_t entry_bytes() const {
    return key.size() +
           predictions.size() * sizeof(core::ThroughputPrediction);
  }
};

TEST(SvcService, HitsCopyTheMissBytesUnderTheirOwnId) {
  // A plain id, one that needs escaping, and an empty one (rendered
  // null), rotated so each takes every position.
  const std::string ids[] = {"plain-7", "q\"uo\\te\n\t", ""};
  for (const std::string stem : {"md", "pdf1d", "pdf2d"}) {
    const std::string sheet = fixture_text(stem);
    const Expected want(sheet);
    for (const Service::Lookup lookup :
         {Service::Lookup::kCaller, Service::Lookup::kPool}) {
      for (std::size_t r = 0; r < std::size(ids); ++r) {
        SCOPED_TRACE(stem + (lookup == Service::Lookup::kCaller
                                 ? " kCaller, rotation "
                                 : " kPool, rotation ") +
                     std::to_string(r));
        Service service;
        Collector out;
        // The miss, the first hit (which attaches the tail), then two
        // later hits, each under the next id.
        for (std::size_t i = 0; i < 4; ++i) {
          const std::string& id = ids[(r + i) % std::size(ids)];
          service.submit(evaluate_line(id, sheet), out.sink(), lookup);
          if (i > 0 && lookup == Service::Lookup::kCaller) {
            EXPECT_EQ(out.count(), i + 1) << "a hit left the caller";
          }
          EXPECT_EQ(out.wait_for(i + 1)[i], want.response(id))
              << "request " << i;
          EXPECT_EQ(service.stats().cache.bytes,
                    want.entry_bytes() + (i == 0 ? 0 : want.tail_bytes()))
              << "request " << i;
        }
        const Service::Stats st = service.stats();
        EXPECT_EQ(st.cache.misses, 1u);
        EXPECT_EQ(st.cache.hits, 3u);
      }
    }
  }
}

TEST(SvcService, WorksheetsThatOnlyMissAttachNoTail) {
  Service service;
  Collector out;
  std::uint64_t bytes = 0;
  constexpr std::size_t kSheets = 24;
  for (std::size_t i = 0; i < kSheets; ++i) {
    core::RatInputs in = core::pdf1d_inputs();
    in.name += " #" + std::to_string(i);
    in.software.tsoft_sec += static_cast<double>(i);
    const std::string sheet = in.serialize();
    service.submit(evaluate_line("u" + std::to_string(i), sheet), out.sink(),
                   i % 2 ? Service::Lookup::kCaller : Service::Lookup::kPool);
    bytes += Expected(sheet).entry_bytes();
  }
  out.wait_for(kSheets);
  service.drain();
  const Service::Stats st = service.stats();
  EXPECT_EQ(st.cache.misses, kSheets);
  EXPECT_EQ(st.cache.hits, 0u);
  EXPECT_EQ(st.cache.size, kSheets);
  EXPECT_EQ(st.cache.bytes, bytes);  // keys and predictions, no tails
}

TEST(SvcService, WarmLoadedEntryAnswersItsFirstHitWithColdBytes) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "svc_service_warm_tail";
  std::filesystem::remove_all(dir);
  const std::string sheet = fixture_text("pdf2d");
  const Expected want(sheet);
  {
    Service service({.cache_dir = dir.string()});
    Collector out;
    service.submit(evaluate_line("first", sheet), out.sink());
    out.wait_for(1);
  }
  std::string cold;
  {
    Service service;
    Collector out;
    service.submit(evaluate_line("w", sheet), out.sink());
    cold = out.wait_for(1)[0];
  }
  ASSERT_EQ(cold, want.response("w"));

  Service service({.cache_dir = dir.string()});
  ASSERT_EQ(service.stats().cache_warmed, 1u);
  EXPECT_EQ(service.stats().cache.bytes, want.entry_bytes());
  Collector out;
  // The warm entry has no tail yet: its first hit renders and attaches
  // one, on the caller, with the bytes a cold service answers.
  service.submit(evaluate_line("w", sheet), out.sink(),
                 Service::Lookup::kCaller);
  ASSERT_EQ(out.count(), 1u);
  EXPECT_EQ(out.wait_for(1)[0], cold);
  EXPECT_EQ(service.stats().cache.bytes,
            want.entry_bytes() + want.tail_bytes());
  service.submit(evaluate_line("", sheet), out.sink());
  EXPECT_EQ(out.wait_for(2)[1], want.response(""));
  const Service::Stats st = service.stats();
  EXPECT_EQ(st.cache.hits, 2u);
  EXPECT_EQ(st.cache.misses, 0u);
  std::filesystem::remove_all(dir);
}

TEST(SvcService, NoCacheBypassesTheCache) {
  Service service({.cache_capacity = 16});
  Collector out;
  const std::string sheet = core::pdf1d_inputs().serialize();
  service.submit(evaluate_line("a", sheet, ",\"no_cache\":true"), out.sink());
  service.submit(evaluate_line("b", sheet, ",\"no_cache\":true"), out.sink());
  service.drain();
  const Service::Stats st = service.stats();
  EXPECT_EQ(st.cache.hits, 0u);
  EXPECT_EQ(st.cache.misses, 0u);
  EXPECT_EQ(st.cache.size, 0u);
  EXPECT_EQ(st.responses_ok, 2u);
}

TEST(SvcService, OverloadedRequestsGetStructuredRejection) {
  PoolBlocker blocker;  // nothing admitted can start running
  Service service({.queue_capacity = 2});
  Collector out;
  const std::string sheet = core::pdf1d_inputs().serialize();
  service.submit(evaluate_line("a", sheet), out.sink());
  service.submit(evaluate_line("b", sheet), out.sink());
  // Queue full (2 queued, 0 running): the third is rejected inline, not
  // buffered.
  service.submit(evaluate_line("c", sheet), out.sink());
  const auto rejected = out.wait_for(1);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(error_code_of(rejected[0]), "E_OVERLOADED");
  EXPECT_NE(rejected[0].find("\"id\":\"c\""), std::string::npos);
  EXPECT_EQ(service.stats().rejected_overloaded, 1u);

  blocker.release();
  service.drain();
  const auto all = out.wait_for(3);
  EXPECT_EQ(all.size(), 3u);  // exactly one response per request
  EXPECT_EQ(service.stats().responses_ok, 2u);
}

TEST(SvcService, ExpiredDeadlineIsReportedNotEvaluated) {
  PoolBlocker blocker;
  Service service;
  Collector out;
  service.submit(
      evaluate_line("d", core::pdf1d_inputs().serialize(),
                    ",\"deadline_ms\":1"),
      out.sink());
  // Hold the pool well past the deadline, then let the task run.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  blocker.release();
  const auto lines = out.wait_for(1);
  EXPECT_EQ(error_code_of(lines[0]), "E_DEADLINE_EXPIRED");
  service.drain();
  EXPECT_EQ(service.stats().deadline_expired, 1u);
  EXPECT_EQ(service.stats().cache.misses, 0u);  // never evaluated
}

TEST(SvcService, CallerLookupAnswersAWarmHitEvenWhenTheQueueIsFull) {
  Service service({.queue_capacity = 1});
  Collector out;
  const std::string sheet = core::pdf1d_inputs().serialize();
  service.submit(evaluate_line("r", sheet), out.sink());
  const std::string cold = out.wait_for(1)[0];

  PoolBlocker blocker;
  // A miss fills the one admission slot and waits behind the pool.
  service.submit(evaluate_line("m", core::md_inputs().serialize()),
                 out.sink());
  service.submit(evaluate_line("r", sheet), out.sink(),
                 Service::Lookup::kCaller);
  // Answered before submit() returned, from the cache, not E_OVERLOADED.
  ASSERT_EQ(out.count(), 2u);
  EXPECT_EQ(out.wait_for(2)[1], cold);
  Service::Stats st = service.stats();
  EXPECT_EQ(st.rejected_overloaded, 0u);
  EXPECT_EQ(st.in_flight, 1u);  // the blocked miss only
  EXPECT_EQ(st.cache.hits, 1u);
  EXPECT_EQ(st.cache.misses, 1u);  // the blocked miss has not looked yet

  blocker.release();
  service.drain();
  EXPECT_EQ(out.wait_for(3).size(), 3u);
  st = service.stats();
  EXPECT_EQ(st.responses_ok, 3u);
  EXPECT_EQ(st.cache.misses, 2u);
}

TEST(SvcService, CallerLookupStillQueuesAFileRequest) {
  // A file is read on the pool only: a slow path must never stall the
  // caller, which in the server is the event loop every client shares.
  const std::string file =
      (std::filesystem::path(RAT_SOURCE_DIR) / "tests" / "fixtures" /
       "worksheets" / "pdf1d.rat")
          .string();
  const std::string line =
      "{\"id\":\"f\",\"op\":\"evaluate\",\"file\":" + io::json_str(file) +
      "}";
  Service service;
  Collector out;
  service.submit(line, out.sink());
  const std::string cold = out.wait_for(1)[0];

  PoolBlocker blocker;
  service.submit(line, out.sink(), Service::Lookup::kCaller);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(out.count(), 1u) << "a file request was answered off the pool";
  EXPECT_EQ(service.stats().in_flight, 1u);
  blocker.release();
  EXPECT_EQ(out.wait_for(2)[1], cold);
  service.drain();
  EXPECT_EQ(service.stats().cache.hits, 1u);
}

TEST(SvcService, CallerLookupAnswersALoneMissItself) {
  // On an in-memory service the caller computes a miss with the routine
  // the pool runs: answered before submit() returns, with a plain
  // submit's bytes, counted by the caller's lookup and never queued, so
  // a full admission queue does not refuse it.
  const std::string pdf2d = core::pdf2d_inputs().serialize();
  const std::string pdf1d = core::pdf1d_inputs().serialize();
  Service plain;
  Collector plain_out;
  plain.submit(evaluate_line("c", pdf2d), plain_out.sink());
  plain_out.wait_for(1);
  plain.submit(evaluate_line("p", pdf1d), plain_out.sink());
  const std::vector<std::string> pooled = plain_out.wait_for(2);

  Collector out;
  Service service({.queue_capacity = 1});
  PoolBlocker blocker;  // released before ~Service drains
  service.submit(evaluate_line("c", pdf2d), out.sink(),
                 Service::Lookup::kCaller);
  ASSERT_EQ(out.count(), 1u) << "a lone miss waited for the pool";
  EXPECT_EQ(out.wait_for(1)[0], pooled[0]);
  Service::Stats st = service.stats();
  EXPECT_EQ(st.cache.misses, 1u);
  EXPECT_EQ(st.cache.hits, 0u);
  EXPECT_EQ(st.in_flight, 0u);
  EXPECT_EQ(st.in_flight_max, 0u);

  // A miss fills the one admission slot and waits behind the pool.
  service.submit(evaluate_line("m", core::md_inputs().serialize()),
                 out.sink());
  service.submit(evaluate_line("p", pdf1d), out.sink(),
                 Service::Lookup::kCaller);
  ASSERT_EQ(out.count(), 2u);
  EXPECT_EQ(out.wait_for(2)[1], pooled[1]);
  st = service.stats();
  EXPECT_EQ(st.rejected_overloaded, 0u);
  EXPECT_EQ(st.in_flight, 1u);  // the blocked miss only
  EXPECT_EQ(st.cache.misses, 2u);  // the blocked miss has not looked yet

  blocker.release();
  service.drain();
  EXPECT_EQ(out.wait_for(3).size(), 3u);
  st = service.stats();
  EXPECT_EQ(st.responses_ok, 3u);
  EXPECT_EQ(st.cache.misses, 3u);
}

TEST(SvcService, CallerLookupQueuesAMissAboveTheClockBound) {
  // A worksheet that lists more than kCallerMaxClocks clocks would hold
  // the caller for its predict_all, so its miss is queued and answered
  // with a plain submit's bytes; exactly the bound is computed on the
  // caller. Each counts one lookup.
  const std::string over = sheet_with_clocks(Service::kCallerMaxClocks + 1);
  const std::string at = sheet_with_clocks(Service::kCallerMaxClocks);
  Service plain;
  Collector plain_out;
  plain.submit(evaluate_line("o", over), plain_out.sink());
  plain_out.wait_for(1);
  plain.submit(evaluate_line("a", at), plain_out.sink());
  const std::vector<std::string> pooled = plain_out.wait_for(2);

  Collector out;
  Service service;
  PoolBlocker blocker;  // released before ~Service drains
  service.submit(evaluate_line("o", over), out.sink(),
                 Service::Lookup::kCaller);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(out.count(), 0u) << "a long clock list was computed off the pool";
  EXPECT_EQ(service.stats().in_flight, 1u);
  EXPECT_EQ(service.stats().cache.misses, 0u);  // probed, not yet counted

  service.submit(evaluate_line("a", at), out.sink(),
                 Service::Lookup::kCaller);
  ASSERT_EQ(out.count(), 1u) << "a miss at the clock bound was queued";
  EXPECT_EQ(out.wait_for(1)[0], pooled[1]);

  blocker.release();
  EXPECT_EQ(out.wait_for(2)[1], pooled[0]);
  service.drain();
  const Service::Stats st = service.stats();
  EXPECT_EQ(st.cache.misses, 2u);
  EXPECT_EQ(st.cache.hits, 0u);
}

/// @p inputs' worksheet padded by a trailing comment to @p bytes.
std::string padded_sheet(const core::RatInputs& inputs, std::size_t bytes) {
  std::string sheet = inputs.serialize() + "#";
  sheet.append(bytes - sheet.size() - 1, 'x');
  return sheet + '\n';
}

TEST(SvcService, CallerLookupQueuesAWorksheetAboveTheByteBound) {
  // A worksheet longer than kCallerMaxWorksheetBytes would hold the
  // caller for its parse, so it is queued unparsed and answered with a
  // plain submit's bytes; exactly the bound is answered on the caller.
  // Each counts one lookup.
  const std::size_t bound = Service::kCallerMaxWorksheetBytes;
  const std::string over = padded_sheet(core::pdf1d_inputs(), bound + 1);
  const std::string at = padded_sheet(core::md_inputs(), bound);
  ASSERT_EQ(over.size(), bound + 1);
  ASSERT_EQ(at.size(), bound);
  // Every fixture, and the clock bound's own worksheets, stay below it.
  for (const char* stem : {"md", "pdf1d", "pdf2d"})
    EXPECT_LT(fixture_text(stem).size(), bound) << stem;
  EXPECT_LT(sheet_with_clocks(Service::kCallerMaxClocks + 1).size(), bound);

  Service plain;
  Collector plain_out;
  plain.submit(evaluate_line("o", over), plain_out.sink());
  plain_out.wait_for(1);
  plain.submit(evaluate_line("a", at), plain_out.sink());
  const std::vector<std::string> pooled = plain_out.wait_for(2);

  Collector out;
  Service service;
  PoolBlocker blocker;  // released before ~Service drains
  service.submit(evaluate_line("o", over), out.sink(),
                 Service::Lookup::kCaller);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(out.count(), 0u) << "a long worksheet was parsed off the pool";
  EXPECT_EQ(service.stats().in_flight, 1u);
  EXPECT_EQ(service.stats().cache.misses, 0u);  // not looked up yet

  service.submit(evaluate_line("a", at), out.sink(),
                 Service::Lookup::kCaller);
  ASSERT_EQ(out.count(), 1u) << "a worksheet at the byte bound was queued";
  EXPECT_EQ(out.wait_for(1)[0], pooled[1]);

  blocker.release();
  EXPECT_EQ(out.wait_for(2)[1], pooled[0]);
  service.drain();
  const Service::Stats st = service.stats();
  EXPECT_EQ(st.cache.misses, 2u);
  EXPECT_EQ(st.cache.hits, 0u);
}

TEST(SvcService, CallerLookupMissCarriesItsParseToThePool) {
  // A journaled miss is queued: it is looked up once on the caller
  // (uncounted) and once more on the pool (counted), which computes and
  // journals it: one miss, the same bytes as a plain submit.
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "svc_service_caller_journaled_miss";
  std::filesystem::remove_all(dir);
  const std::string sheet = core::pdf2d_inputs().serialize();
  std::string via_caller;
  {
    Service service({.cache_dir = dir.string()});
    Collector out;
    service.submit(evaluate_line("c", sheet), out.sink(),
                   Service::Lookup::kCaller);
    via_caller = out.wait_for(1)[0];
    service.drain();
    EXPECT_EQ(service.stats().cache.misses, 1u);
    EXPECT_EQ(service.stats().cache.hits, 0u);
  }
  EXPECT_EQ(Service({.cache_dir = dir.string()}).stats().cache_warmed, 1u);
  std::filesystem::remove_all(dir);

  Service plain;
  Collector plain_out;
  plain.submit(evaluate_line("c", sheet), plain_out.sink());
  EXPECT_EQ(plain_out.wait_for(1)[0], via_caller);
}

TEST(SvcService, CallerLookupMissThatExpiresInTheQueueCountsNoLookup) {
  // A journaled miss is queued; past its deadline it is answered without
  // a counted lookup.
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "svc_service_caller_journaled_expiry";
  std::filesystem::remove_all(dir);
  PoolBlocker blocker;
  Service service({.cache_dir = dir.string()});
  Collector out;
  service.submit(evaluate_line("d", core::pdf1d_inputs().serialize(),
                               ",\"deadline_ms\":1"),
                 out.sink(), Service::Lookup::kCaller);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  blocker.release();
  EXPECT_EQ(error_code_of(out.wait_for(1)[0]), "E_DEADLINE_EXPIRED");
  service.drain();
  const Service::Stats st = service.stats();
  EXPECT_EQ(st.deadline_expired, 1u);
  EXPECT_EQ(st.cache.hits + st.cache.misses, 0u);
  std::filesystem::remove_all(dir);
}

TEST(SvcService, CallerLookupAnswersShuttingDownFirst) {
  Service service;
  Collector out;
  const std::string sheet = core::pdf1d_inputs().serialize();
  service.submit(evaluate_line("w", sheet), out.sink());
  out.wait_for(1);
  service.begin_drain();
  service.submit(evaluate_line("late", sheet), out.sink(),
                 Service::Lookup::kCaller);
  ASSERT_EQ(out.count(), 2u);
  EXPECT_EQ(error_code_of(out.wait_for(2)[1]), "E_SHUTTING_DOWN");
  EXPECT_EQ(service.stats().cache.hits, 0u);
  service.wait_drained();
}

TEST(SvcService, EveryEvaluationRecordsOneRequestSample) {
  // One miss (parsed on the caller, served on the pool) plus N hits
  // answered on the caller: N + 1 svc.request samples.
  constexpr std::size_t kHits = 5;
  obs::Registry::global().reset();
  obs::set_enabled(true);
  {
    Service service;
    Collector out;
    const std::string sheet = core::md_inputs().serialize();
    service.submit(evaluate_line("m", sheet), out.sink(),
                   Service::Lookup::kCaller);
    out.wait_for(1);  // inserted before it was answered
    for (std::size_t i = 0; i < kHits; ++i)
      service.submit(evaluate_line("h", sheet), out.sink(),
                     Service::Lookup::kCaller);
    EXPECT_EQ(out.count(), kHits + 1);
    EXPECT_EQ(service.stats().cache.hits, kHits);
  }  // ~Service waits for the miss to record its sample
  obs::set_enabled(false);
  const auto hists = obs::Registry::global().hists();
  const auto it = hists.find("svc.request");
  ASSERT_NE(it, hists.end());
  EXPECT_EQ(it->second.count(), kHits + 1);
  EXPECT_EQ(obs::Registry::global().timers().at("svc.request").count,
            kHits + 1);
  obs::Registry::global().reset();
}

TEST(SvcService, HugeDeadlineIsClampedNotUndefined) {
  // Regression: deadline_ms * 1e6 used to be cast to uint64_t unclamped,
  // which is UB for huge finite values like 1e308 (check.sh runs this
  // suite under UBSan to keep it honest). Clamped, it just means "no
  // practical deadline" and the evaluation succeeds.
  Service service;
  Collector out;
  service.submit(evaluate_line("huge", core::pdf1d_inputs().serialize(),
                               ",\"deadline_ms\":1e308"),
                 out.sink());
  const auto lines = out.wait_for(1);
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos) << lines[0];
  service.drain();
  EXPECT_EQ(service.stats().deadline_expired, 0u);
}

TEST(SvcService, MalformedWorksheetYieldsCoreDiagnostic) {
  Service service;
  Collector out;
  service.submit(
      evaluate_line("bad", "name = broken\nfclock_hz = 75e6 oops\n"),
      out.sink());
  service.drain();
  const auto lines = out.wait_for(1);
  const io::JsonValue doc = io::parse_json(lines[0]);
  const io::JsonValue* err = doc.find("error");
  ASSERT_NE(err, nullptr);
  // The worksheet E_* taxonomy, with the full structured diagnostic.
  EXPECT_EQ(err->find("code")->string, "E_BAD_LIST");
  const io::JsonValue* diag = err->find("diagnostic");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->find("file")->string, "<request>");
  EXPECT_EQ(diag->find("line")->number, 2.0);
  EXPECT_EQ(diag->find("key")->string, "fclock_hz");
}

TEST(SvcService, ValidationFailureMapsToInvalidValue) {
  Service service;
  Collector out;
  core::RatInputs in = core::pdf1d_inputs();
  in.comm.alpha_write = 2.0;  // alphas live in (0, 1]
  const std::string text = in.serialize();
  service.submit(evaluate_line("v", text), out.sink());
  service.drain();
  const std::string line = out.wait_for(1)[0];
  EXPECT_EQ(error_code_of(line), "E_INVALID_VALUE");

  // The response carries exactly the diagnostic the worksheet loader
  // throws for the same text: one validation path, one taxonomy.
  core::Diagnostic expected;
  try {
    (void)io::parse_worksheet_text(text, "<request>");
    FAIL() << "the worksheet must fail validation";
  } catch (const core::ParseError& e) {
    expected = e.diagnostic();
  }
  const io::JsonValue doc = io::parse_json(line);
  const io::JsonValue* d = doc.find("error")->find("diagnostic");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->find("file")->string, expected.file);
  EXPECT_EQ(d->find("line")->number, static_cast<double>(expected.line));
  EXPECT_EQ(d->find("column")->number, static_cast<double>(expected.column));
  EXPECT_EQ(d->find("code")->string, core::error_code_name(expected.code));
  EXPECT_EQ(d->find("key")->string, expected.key);
  EXPECT_EQ(d->find("message")->string, expected.message);
}

TEST(SvcService, ProtocolErrorsAreAnsweredInline) {
  Service service;
  Collector out;
  service.submit("{\"op\":\"evaluate\"}", out.sink());
  service.submit("{nope", out.sink());
  // Inline: both responses are already there, no drain needed.
  ASSERT_EQ(out.count(), 2u);
  for (const std::string& line : out.wait_for(2))
    EXPECT_EQ(error_code_of(line), "E_BAD_REQUEST");
  EXPECT_EQ(service.stats().responses_error, 2u);
}

TEST(SvcService, DrainingRejectsNewWorkAndShutdownOpTriggersHandler) {
  Service service;
  Collector out;
  std::atomic<int> handler_calls{0};
  service.set_shutdown_handler([&] { handler_calls.fetch_add(1); });
  service.submit("{\"id\":\"s\",\"op\":\"shutdown\"}", out.sink());
  EXPECT_EQ(handler_calls.load(), 1);
  // The handler owns the drain (as the server does); nothing drains yet.
  EXPECT_FALSE(service.draining());
  service.begin_drain();
  service.submit(evaluate_line("late", core::pdf1d_inputs().serialize()),
                 out.sink());
  const auto lines = out.wait_for(2);
  EXPECT_EQ(error_code_of(lines[1]), "E_SHUTTING_DOWN");
  EXPECT_EQ(service.stats().rejected_draining, 1u);
  service.wait_drained();
}

TEST(SvcService, PingAndStatsAnswerInline) {
  Service service;
  Collector out;
  service.submit("{\"id\":\"p\",\"op\":\"ping\"}", out.sink());
  service.submit("{\"id\":\"s\",\"op\":\"stats\"}", out.sink());
  ASSERT_EQ(out.count(), 2u);
  const auto lines = out.wait_for(2);
  EXPECT_NE(lines[0].find("\"op\":\"ping\""), std::string::npos);
  const io::JsonValue stats = io::parse_json(lines[1]);
  ASSERT_TRUE(stats.find("stats") != nullptr);
  EXPECT_EQ(stats.find("stats")->find("cache")->find("capacity")->number,
            1024.0);
}

// The TSan target: many threads pipelining a mix of good, cached, and
// malformed requests while the cache, admission counters and stats are
// hammered concurrently. Every request must get exactly one response.
TEST(SvcService, ConcurrentHammerAnswersEveryRequestExactlyOnce) {
  Service service({.cache_capacity = 8, .queue_capacity = 1024});
  Collector out;
  const std::vector<std::string> sheets = {
      core::pdf1d_inputs().serialize(), core::pdf2d_inputs().serialize(),
      core::md_inputs().serialize(),
      "name = broken\nfclock_hz = 75e6 oops\n"};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string id =
            "t" + std::to_string(t) + "." + std::to_string(i);
        service.submit(evaluate_line(id, sheets[i % sheets.size()]),
                       out.sink());
        if (i % 8 == 0)
          service.submit("{\"id\":\"s\",\"op\":\"stats\"}", out.sink());
      }
    });
  for (std::thread& c : clients) c.join();
  service.drain();
  const std::size_t expected =
      kThreads * (kPerThread + kPerThread / 8);
  EXPECT_EQ(out.wait_for(expected).size(), expected);
  const Service::Stats st = service.stats();
  EXPECT_EQ(st.requests, expected);
  EXPECT_EQ(st.responses_ok + st.responses_error, expected);
  EXPECT_GT(st.cache.hits, 0u);
  EXPECT_EQ(st.in_flight, 0u);
}

TEST(SvcService, DestructorDrains) {
  Collector out;
  {
    Service service;
    service.submit(evaluate_line("d", core::pdf1d_inputs().serialize()),
                   out.sink());
  }  // ~Service waits for the in-flight evaluation
  EXPECT_EQ(out.count(), 1u);
}

}  // namespace
}  // namespace rat::svc
