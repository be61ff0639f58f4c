// CRC32C and FNV-1a checksums: known-answer vectors and incremental
// hashing equivalences the on-disk format depends on.
#include "store/checksum.hpp"

#include <gtest/gtest.h>

#include <string>

namespace rat::store {
namespace {

TEST(StoreChecksum, Crc32cKnownAnswerVectors) {
  // RFC 3720 appendix B test vectors for CRC32C (Castagnoli).
  EXPECT_EQ(crc32c(""), 0x00000000u);
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(crc32c(std::string(32, '\xff')), 0x62A8AB43u);
}

TEST(StoreChecksum, Crc32cDetectsSingleBitFlips) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t base = crc32c(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_NE(crc32c(flipped), base)
          << "bit " << bit << " of byte " << i << " undetected";
    }
  }
}

TEST(StoreChecksum, Fnv1a64KnownAnswers) {
  // Offset basis for the empty string, then classic FNV-1a vectors.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64("a"), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171F73967E8ull);
}

TEST(StoreChecksum, IncrementalMatchesOneShotForRawBytes) {
  const std::string data = "abcdefgh";
  Fnv1a fp;
  fp.add_bytes(data.data(), data.size());
  EXPECT_EQ(fp.value(), fnv1a64(data));

  Fnv1a split;
  split.add_bytes(data.data(), 3);
  split.add_bytes(data.data() + 3, data.size() - 3);
  EXPECT_EQ(split.value(), fnv1a64(data));
}

TEST(StoreChecksum, LengthPrefixedStringsDoNotAliasAcrossBoundaries) {
  // ("ab","c") and ("a","bc") must fingerprint differently — that is the
  // point of the length prefix in add_string.
  Fnv1a a;
  a.add_string("ab");
  a.add_string("c");
  Fnv1a b;
  b.add_string("a");
  b.add_string("bc");
  EXPECT_NE(a.value(), b.value());
}

TEST(StoreChecksum, DoublesHashByBitPattern) {
  Fnv1a pos, neg;
  pos.add_double(0.0);
  neg.add_double(-0.0);
  // +0.0 == -0.0 numerically, but the bit patterns differ and so must the
  // fingerprints (plan-cache keys are bit-exact).
  EXPECT_NE(pos.value(), neg.value());
}

}  // namespace
}  // namespace rat::store
