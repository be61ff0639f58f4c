// Golden bytes for the two value payloads the store persists: the
// service result cache's predictions (io::encode_predictions) and the
// plan cache's evaluations (io::encode_evaluation_unindexed). Existing
// --cache-dir and plan-cache directories hold exactly these bytes, so a
// codec change that moves a single byte must fail here, not at a user's
// warm start.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "core/evaluation.hpp"
#include "core/parameters.hpp"
#include "core/throughput.hpp"
#include "io/codec.hpp"

namespace rat {
namespace {

std::string to_hex(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

std::string from_hex(const std::string& hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  return out;
}

bool bit_identical(const core::ThroughputPrediction& a,
                   const core::ThroughputPrediction& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// io::encode_predictions(predict_all(pdf1d_inputs())): u32 count 3,
/// then 13 little-endian f64 bit patterns per clock.
const std::string kPdf1dPredictionsHex =
    "0300000000000000a3e19141e528505c4e37d73e48afbc9af2d75a3e94e5ea4e"
    "2652d73e95d626e80b2e313f63eb290ab469bb3f49afbc9af2d7ba3f157ecdc7"
    "4b971540ffffffff870c1640d6c318c7da55ef3f4a85e71ca744953f00000000"
    "0000f03ff259379822b8953f0000000084d79741e528505c4e37d73e48afbc9a"
    "f2d75a3e94e5ea4e2652d73edf413adc11c5293f91bf7a63b7b3b43f76830df4"
    "f521b43fc3cba1750e971c40aaaaaaaa0a661d40a126d003b31eef3fc52bfb85"
    "9f299c3f000000000000f03f98229f7583f59c3f00000000a3e1a141e528505c"
    "4e37d73e48afbc9af2d75a3e94e5ea4e2652d73e95d626e80b2e213f7f279779"
    "75fbab3f49afbc9af2d7aa3fbf1758e2d4262540ffffffff870c264005dde714"
    "a2b2ee3fab2f82b1ded5a43f000000000000f03ff259379822b8a53f";

/// encode_evaluation_unindexed of the throughput gate's verdict on the
/// first pdf1d clock under default Requirements.
const std::string kPdf1dGateEvaluationHex =
    "02000000000026000000707265646963746564207370656564757020352e3420"
    "76732072657175697265642031302e30050026000000696e7375666669636965"
    "6e7420636f6d6d2e206f7220636f6d702e207468726f75676870757400000000"
    "a3e19141e528505c4e37d73e48afbc9af2d75a3e94e5ea4e2652d73e95d626e8"
    "0b2e313f63eb290ab469bb3f49afbc9af2d7ba3f157ecdc74b971540ffffffff"
    "870c1640d6c318c7da55ef3f4a85e71ca744953f000000000000f03ff2593798"
    "22b8953f0001";

core::CandidateEvaluation pdf1d_gate_evaluation() {
  core::CandidateEvaluation ev;
  const core::RatInputs in = core::pdf1d_inputs();
  core::apply_throughput_gate(ev, 0, in.name, core::Requirements{},
                              core::predict_all(in).front());
  return ev;
}

TEST(StorePayloadGolden, PredictionsEncodeToPinnedBytes) {
  const std::vector<core::ThroughputPrediction> predictions =
      core::predict_all(core::pdf1d_inputs());
  EXPECT_EQ(to_hex(io::encode_predictions(predictions)), kPdf1dPredictionsHex);

  const std::vector<core::ThroughputPrediction> decoded =
      io::decode_predictions(from_hex(kPdf1dPredictionsHex));
  ASSERT_EQ(decoded.size(), predictions.size());
  for (std::size_t i = 0; i < decoded.size(); ++i)
    EXPECT_TRUE(bit_identical(decoded[i], predictions[i])) << "clock " << i;
}

TEST(StorePayloadGolden, EvaluationEncodesToPinnedBytes) {
  const core::CandidateEvaluation ev = pdf1d_gate_evaluation();
  EXPECT_EQ(to_hex(io::encode_evaluation_unindexed(ev)),
            kPdf1dGateEvaluationHex);

  const core::CandidateEvaluation decoded = io::decode_evaluation_unindexed(
      from_hex(kPdf1dGateEvaluationHex), 0, core::pdf1d_inputs().name);
  EXPECT_TRUE(bit_identical(decoded.prediction, ev.prediction));
  EXPECT_EQ(decoded.passed, ev.passed);
  EXPECT_EQ(decoded.reject, ev.reject);
  ASSERT_EQ(decoded.trace.size(), ev.trace.size());
  for (std::size_t i = 0; i < ev.trace.size(); ++i) {
    EXPECT_EQ(decoded.trace[i].candidate_index, ev.trace[i].candidate_index);
    EXPECT_EQ(decoded.trace[i].candidate_name, ev.trace[i].candidate_name);
    EXPECT_EQ(decoded.trace[i].step, ev.trace[i].step);
    EXPECT_EQ(decoded.trace[i].passed, ev.trace[i].passed);
    EXPECT_EQ(decoded.trace[i].detail, ev.trace[i].detail);
  }
}

}  // namespace
}  // namespace rat
