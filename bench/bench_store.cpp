// Durable-store benchmarks (docs/STORE.md): journal append throughput
// with and without per-append fsync, recovery time as a function of
// journal size, and the service-level payoff — answering a request from
// a warm-started cache versus evaluating it cold.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>

#include "core/parameters.hpp"
#include "io/json.hpp"
#include "store/journal.hpp"
#include "store/store.hpp"
#include "svc/service.hpp"

namespace {

using namespace rat;
namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "rat_bench_store" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void BM_JournalAppendSynced(benchmark::State& state) {
  // The durability price: one write(2) + fsync per record. Real media
  // will be slower than the CI tmpfs; the shape, not the number, is the
  // point.
  const fs::path dir = fresh_dir("append_synced");
  store::JournalWriter writer(dir / "journal", {.sync_every_append = true});
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) benchmark::DoNotOptimize(writer.append(payload));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_JournalAppendSynced)->Arg(64)->Arg(1024)->Arg(16384);

void BM_JournalAppendUnsynced(benchmark::State& state) {
  // What compaction's journal rewrite pays per record: it appends the
  // surviving records unsynced and fsyncs the file once before its
  // rename.
  const fs::path dir = fresh_dir("append_unsynced");
  store::JournalWriter writer(dir / "journal", {.sync_every_append = false});
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) benchmark::DoNotOptimize(writer.append(payload));
  writer.sync();
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_JournalAppendUnsynced)->Arg(64)->Arg(1024)->Arg(16384);

void BM_JournalRecovery(benchmark::State& state) {
  // Recovery scans and CRC-checks every record: expect linear time in
  // journal bytes. Arg = record count at 1 KiB per record.
  const fs::path dir = fresh_dir("recovery");
  const fs::path path = dir / "journal";
  {
    store::JournalWriter writer(path, {.sync_every_append = false});
    const std::string payload(1024, 'r');
    for (std::int64_t i = 0; i < state.range(0); ++i) writer.append(payload);
  }
  for (auto _ : state) {
    store::RecoveredJournal r = store::recover_journal(path);
    benchmark::DoNotOptimize(r.records.data());
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(fs::file_size(path)));
}
BENCHMARK(BM_JournalRecovery)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DurableStorePut(benchmark::State& state) {
  // Full store put: map update + framed journal append (unsynced, no
  // auto-compaction, so the loop measures the steady-state append path).
  const fs::path dir = fresh_dir("store_put");
  store::DurableStore db(dir, {.sync_every_append = false,
                               .compact_journal_bytes = 0});
  const std::string value(256, 'v');
  std::uint64_t i = 0;
  for (auto _ : state) db.put("key" + std::to_string(i++ % 1024), value);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DurableStorePut);

std::string evaluate_line(const std::string& id, const std::string& sheet) {
  return "{\"id\":" + io::json_str(id) +
         ",\"op\":\"evaluate\",\"worksheet\":" + io::json_str(sheet) + "}";
}

void submit_and_wait(svc::Service& service, const std::string& line) {
  std::atomic<bool> done{false};
  service.submit(line, [&done](std::string response) {
    benchmark::DoNotOptimize(response.data());
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
  }
}

void BM_ServiceColdStartFirstAnswer(benchmark::State& state) {
  // Baseline for the warm-start comparison: a fresh in-memory service
  // must parse + evaluate the first request.
  const std::string line =
      evaluate_line("q", core::pdf1d_inputs().serialize());
  for (auto _ : state) {
    svc::Service service({.cache_capacity = 64});
    submit_and_wait(service, line);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceColdStartFirstAnswer);

void BM_ServiceWarmStartFirstAnswer(benchmark::State& state) {
  // The store payoff: boot against a populated --cache-dir and answer
  // the same first request from the warmed cache (byte-identical to the
  // cold answer — see SvcService warm-start tests).
  const fs::path dir = fresh_dir("warm_start");
  const std::string line =
      evaluate_line("q", core::pdf1d_inputs().serialize());
  {
    svc::Service seed({.cache_capacity = 64, .cache_dir = dir.string()});
    submit_and_wait(seed, line);  // journals the one entry
  }
  for (auto _ : state) {
    svc::Service service({.cache_capacity = 64, .cache_dir = dir.string()});
    submit_and_wait(service, line);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceWarmStartFirstAnswer);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
