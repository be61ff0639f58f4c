// How model values become rat.store.v1 payloads (docs/STORE.md), and the
// fingerprints that key the plan cache. A double is stored as its exact
// IEEE-754 bit pattern, so a warm-started or replayed value is
// bit-identical to a fresh evaluation; a prediction is its 13 doubles in
// declaration order in both payloads that carry one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluation.hpp"

namespace rat::io {

/// Result-cache value: u32 count, then each prediction. decode throws
/// store::StoreError(kCorrupt) unless the payload holds exactly the
/// declared count.
std::string encode_predictions(
    const std::vector<core::ThroughputPrediction>& predictions);
std::vector<core::ThroughputPrediction> decode_predictions(
    std::string_view payload);

/// Position-independent plan-cache evaluation: the encoded form strips
/// the candidate index and name from every trace entry (both are
/// redundant — the index is the enumeration position and the name is
/// the candidate's own), so a point evaluated at index 17 of one
/// campaign can be replayed at index 3 of an overlapping one. Every
/// trace detail is stored verbatim, so a replayed evaluation merges into
/// a byte-identical outcome. decode re-stamps @p index and @p name on
/// every entry and throws store::StoreError(kCorrupt) for a truncated or
/// overlong payload, a trace count the payload cannot hold, or an
/// out-of-range step or reject reason.
std::string encode_evaluation_unindexed(const core::CandidateEvaluation& ev);
core::CandidateEvaluation decode_evaluation_unindexed(
    std::string_view payload, std::size_t index, const std::string& name);

/// Fingerprint of everything a cached evaluation depends on for one
/// candidate: worksheet inputs (exact double bit patterns), decision
/// clock, resource items and the precision *reference* vector. Half of
/// the plan-cache key. The precision kernel is an arbitrary functor and
/// cannot be fingerprinted — a kernel whose behaviour changes between
/// runs defeats the key; delete the cache after changing one.
std::uint64_t candidate_fingerprint(const core::DesignCandidate& candidate);

/// Fingerprint of the campaign-level evaluation context: requirements
/// (every gate and model parameter) and the device inventory. The other
/// half of the plan-cache key.
std::uint64_t requirements_fingerprint(const core::Requirements& req,
                                       const rcsim::Device& device);

}  // namespace rat::io
