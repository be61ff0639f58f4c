// Request mixes: the worksheet payloads a load run replays.
//
// A Mix holds base worksheets (typically tests/fixtures/worksheets/*.rat
// loaded in sorted-name order, so runs are reproducible across
// filesystems) and hands out one payload per request. The duplicate
// ratio controls how cacheable the traffic is: a duplicate repeats a
// base worksheet byte-for-byte (same rat.fp.v1 fingerprint, so
// rat_serve's result cache and rat_router's fingerprint sharding see
// repeat traffic), while a unique payload perturbs tsoft_sec by a
// counter-scaled 1e-9 relative nudge and re-serializes — a distinct
// canonical text and fingerprint that still parses and evaluates like
// the base. Payload choice draws from the caller's Rng, so a (seed,
// fixture set, ratio) triple fully determines the request stream.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace rat::load {

class Mix {
 public:
  /// All "*.rat" files directly in @p dir (io::list_worksheets), sorted
  /// by filename, verbatim. Throws core::ParseError (E_IO) when the
  /// directory or a file cannot be read, std::runtime_error when the
  /// directory has no worksheets.
  static Mix from_fixture_dir(const std::filesystem::path& dir);

  void add(std::string name, std::string worksheet);

  std::size_t size() const { return entries_.size(); }
  const std::string& name(std::size_t i) const { return entries_[i].name; }

  /// Payload for the next request: a base worksheet verbatim with
  /// probability @p duplicate_ratio (clamped to [0, 1]), otherwise a
  /// never-repeated unique variant of a base.
  std::string next(util::Rng& rng, double duplicate_ratio);

 private:
  struct Entry {
    std::string name;
    std::string worksheet;
  };

  std::string unique_variant(const Entry& base);

  std::vector<Entry> entries_;
  std::uint64_t variant_seq_ = 0;
};

}  // namespace rat::load
