// Canonical worksheet fingerprinting for the prediction service cache.
//
// Two worksheet texts that parse to the same RatInputs must map to the
// same cache entry no matter how they were formatted: key order, spacing,
// comments, CRLF endings, "+1e2" vs "100.0" — none of it may matter.
// The canonical form is therefore computed from the *parsed* struct, not
// the source text: a fixed key order, one canonical spelling per value
// (the shortest decimal string that round-trips the double, so distinct
// bit patterns always get distinct spellings), and a schema tag so the
// key space can evolve.
//
// The candidate clock list keeps its order: predict_all evaluates clocks
// in worksheet order and the response carries one prediction per clock,
// so a reordered clock list is a genuinely different request.
//
// fingerprint() is a 64-bit FNV-1a over the canonical text — used for
// shard selection and compact reporting. The cache itself keys on the
// full canonical text, so hash collisions can never alias two different
// worksheets to one result.
#pragma once

#include <cstdint>
#include <string>

#include "core/parameters.hpp"

namespace rat::svc {

/// Deterministic canonical serialization of @p inputs (see file comment).
/// Identical RatInputs (including every double bit pattern) produce
/// identical text; any differing field produces differing text.
std::string canonical_text(const core::RatInputs& inputs);

/// 64-bit FNV-1a of @p text (store::fnv1a64, under the service's name).
std::uint64_t fnv1a64(const std::string& text);

/// fnv1a64(canonical_text(inputs)).
std::uint64_t fingerprint(const core::RatInputs& inputs);

/// @p fp as 16 lowercase hex digits (the service's wire spelling).
std::string fingerprint_hex(std::uint64_t fp);

}  // namespace rat::svc
