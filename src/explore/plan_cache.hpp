// Persistent, content-addressed plan cache for design-space exploration.
//
// The explorer's only persistence path. Evaluations are keyed by *what
// was evaluated* — the candidate's fingerprint plus the requirements/device
// context — not by grid position, so one mechanism covers both a crashed
// campaign's resume and overlapping campaigns (shifted axes, a re-run
// after editing an unrelated axis, a different process) reusing
// already-scored points. The same pattern as poplibs' ConvReuse: compiled
// plans cached under a canonical spec key.
//
// Key schema (docs/EXPLORATION.md): the canonical text
//
//   rat.plan.v1|cand=<hex16 candidate_fingerprint>|ctx=<hex16
//   requirements_fingerprint(req, device)>
//
// Both fingerprints are store::Fnv1a over length-delimited canonical
// field serializations (exact double bit patterns), so any change to the
// candidate, the requirements or the device changes the key — a stale
// entry is never *rejected*, it is simply never found. Values are
// version-prefixed, position-independent evaluation payloads
// (core::encode_evaluation_unindexed), durable in a DurableStore: they
// survive kill -9, and a torn final append is truncated on reopen.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "core/evaluation.hpp"
#include "store/store.hpp"

namespace rat::explore {

class PlanCache {
 public:
  struct Options {
    /// fsync after every insert (crash-durability; see docs/STORE.md).
    bool sync_every_append = true;
  };

  /// Open or create the cache at @p dir. Throws store::StoreError (kIo,
  /// kCorrupt) exactly like DurableStore — a corrupt *snapshot* refuses
  /// to open; a torn journal tail is dropped silently.
  explicit PlanCache(const std::filesystem::path& dir);
  PlanCache(const std::filesystem::path& dir, const Options& options);

  /// Canonical cache key for one (candidate, requirements, device)
  /// triple. Pure function of the fingerprints; campaign-independent.
  static std::string key(const core::DesignCandidate& cand,
                         const core::Requirements& req,
                         const rcsim::Device& device);

  /// Same key built from precomputed fingerprints (the explorer computes
  /// the context fingerprint once per campaign).
  static std::string key(std::uint64_t candidate_fp, std::uint64_t context_fp);

  /// Replay a cached evaluation, re-stamped with this campaign's
  /// enumeration @p index and candidate @p name. Returns nullopt on a
  /// miss — including an entry whose payload fails to decode (version
  /// mismatch, truncation, a garbage trace count, or bit rot below the
  /// store's CRC granularity), which is treated as absent rather than
  /// fatal.
  std::optional<core::CandidateEvaluation> lookup(const std::string& key,
                                                  std::size_t index,
                                                  const std::string& name);

  /// Memoize one fresh evaluation. Durable on return under
  /// sync_every_append. Thread-safe (DurableStore::put is).
  void insert(const std::string& key, const core::CandidateEvaluation& ev);

  std::size_t size() const { return store_.size(); }
  const store::DurableStore::OpenInfo& open_info() const {
    return store_.open_info();
  }
  const std::filesystem::path& dir() const { return store_.dir(); }

 private:
  store::DurableStore store_;
};

}  // namespace rat::explore
