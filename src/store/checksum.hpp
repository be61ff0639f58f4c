// Checksums and fingerprint hashing for the durable store.
//
// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) guards
// every on-disk record: any single-burst corruption up to 32 bits — and
// every single-byte flip — is detected, which is what lets recovery keep
// exactly the valid prefix of a torn or bit-rotted journal.
//
// FNV-1a 64 is the identity hash behind every fingerprint: the service's
// worksheet fingerprints (svc::fnv1a64 forwards here) and the plan
// cache's candidate and context keys. It lives at the bottom of the
// stack so every layer can fingerprint without depending on svc. Fnv1a
// is the incremental form: feed it length-delimited fields so "ab"+"c"
// and "a"+"bc" cannot collide by framing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rat::store {

/// CRC32C of @p data, continuing from @p seed (pass a previous return
/// value to checksum a logical buffer in pieces; 0 starts fresh).
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed = 0);

inline std::uint32_t crc32c(std::string_view data, std::uint32_t seed = 0) {
  return crc32c(data.data(), data.size(), seed);
}

/// 64-bit FNV-1a of @p data (offset basis 14695981039346656037).
std::uint64_t fnv1a64(std::string_view data);

/// Incremental FNV-1a 64 with self-delimiting field helpers: every
/// variable-length field is preceded by its length, so concatenation
/// ambiguity cannot produce colliding fingerprints.
class Fnv1a {
 public:
  Fnv1a& add_bytes(const void* data, std::size_t size);
  Fnv1a& add_u64(std::uint64_t v);       ///< 8 bytes little-endian
  Fnv1a& add_double(double v);           ///< exact bit pattern, as u64
  Fnv1a& add_string(std::string_view s); ///< length then bytes

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

}  // namespace rat::store
