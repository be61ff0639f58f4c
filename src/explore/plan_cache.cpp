#include "explore/plan_cache.hpp"

#include <cinttypes>
#include <cstdio>

#include "io/codec.hpp"
#include "store/error.hpp"

namespace rat::explore {

namespace {

constexpr std::uint8_t kPayloadVersion = 1;

}  // namespace

PlanCache::PlanCache(const std::filesystem::path& dir) : store_(dir) {}

std::string PlanCache::key(std::uint64_t candidate_fp,
                           std::uint64_t context_fp) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "rat.plan.v1|cand=%016" PRIx64
                                 "|ctx=%016" PRIx64,
                candidate_fp, context_fp);
  return buf;
}

std::string PlanCache::key(const core::DesignCandidate& cand,
                           const core::Requirements& req,
                           const rcsim::Device& device) {
  return key(io::candidate_fingerprint(cand),
             io::requirements_fingerprint(req, device));
}

std::optional<core::CandidateEvaluation> PlanCache::lookup(
    const std::string& key, std::size_t index, const std::string& name) {
  const std::optional<std::string> payload = store_.get(key);
  if (!payload) return std::nullopt;
  // An undecodable payload (wrong version, bit rot) is a miss, not an
  // error: the caller re-evaluates and insert() overwrites the entry.
  try {
    if (payload->empty() ||
        static_cast<std::uint8_t>((*payload)[0]) != kPayloadVersion)
      return std::nullopt;
    return io::decode_evaluation_unindexed(
        std::string_view(*payload).substr(1), index, name);
  } catch (const store::StoreError&) {
    return std::nullopt;
  }
}

void PlanCache::insert(const std::string& key,
                       const core::CandidateEvaluation& ev) {
  std::string payload;
  payload.push_back(static_cast<char>(kPayloadVersion));
  payload += io::encode_evaluation_unindexed(ev);
  store_.put(key, payload);
}

}  // namespace rat::explore
