// Seeded properties of the rat.svc.v1 id splice (svc/protocol.hpp), checked
// against the renderers themselves as the reference: a response rendered
// with a correlation token and then given the client's id back must be
// the bytes a direct request with that id gets, for ids made of any
// bytes, and response_token must never misread a truncated or corrupted
// line. Mutated lines are handed to response_token in exact-size heap
// buffers, so the sanitizer builds catch any read past the end.
#include "svc/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/parameters.hpp"
#include "core/throughput.hpp"
#include "io/loader.hpp"
#include "svc/fingerprint.hpp"
#include "util/rng.hpp"

namespace rat::svc {
namespace {

constexpr int kTrials = 400;
constexpr std::string_view kStatusKey = ",\"status\":\"";

using Render = std::function<std::string(const std::string& id)>;

/// Every response renderer, each closed over fixed arguments.
std::vector<Render> renderers() {
  const core::RatInputs inputs = core::pdf1d_inputs();
  const auto preds = core::predict_all(inputs);
  const std::uint64_t fp = fingerprint(inputs);
  core::Diagnostic diagnostic;
  try {
    io::parse_worksheet_text("name = x\nclocks_mhz = 75 oops\n", "<request>");
  } catch (const core::ParseError& e) {
    diagnostic = e.diagnostic();
  }
  StatsCounters counters{};
  for (std::size_t i = 0; i < counters.size(); ++i) counters[i] = 3 * i + 1;
  const Count router[] = {{"workers", 2}, {"alive", 1}};
  std::vector<Render> out = {
      [=](const std::string& id) {
        return evaluate_response(id, fp, inputs, preds);
      },
      [=](const std::string& id) {
        return diagnostic_response(id, diagnostic);
      },
      [](const std::string& id) {
        return internal_error_response(id, "boom \"quoted\"");
      },
      [](const std::string& id) { return pong_response(id); },
      [](const std::string& id) { return shutdown_response(id); },
      [=](const std::string& id) { return stats_response(id, counters); },
      [=](const std::string& id) {
        return stats_response(id, counters, router);
      },
  };
  for (const SvcErrorCode code :
       {SvcErrorCode::kBadRequest, SvcErrorCode::kOverloaded,
        SvcErrorCode::kDeadlineExpired, SvcErrorCode::kShuttingDown})
    out.push_back([code](const std::string& id) {
      return error_response(id, code, "try again");
    });
  return out;
}

/// An id of 0 to 24 bytes, weighted toward the bytes JSON must escape or
/// that are not ASCII: quote, backslash, control bytes (NUL included),
/// DEL and 0x80-0xFF.
std::string random_id(util::Rng& rng) {
  static const std::string kSpecial = std::string("\"\\\x7f", 3) +
                                      std::string(1, '\0') + "\n\r\t\x01\x1f";
  std::string id(rng.uniform_index(25), ' ');
  for (char& ch : id) {
    switch (rng.uniform_index(3)) {
      case 0: ch = kSpecial[rng.uniform_index(kSpecial.size())]; break;
      case 1: ch = static_cast<char>(0x80 + rng.uniform_index(0x80)); break;
      default: ch = static_cast<char>(rng.uniform_index(256)); break;
    }
  }
  return id;
}

/// A correlation token: 1 to 12 bytes that JSON renders as themselves
/// (rat_router's are "t<hex>", rat_loadgen's "r<decimal>").
std::string random_token(util::Rng& rng) {
  std::string token(1 + rng.uniform_index(12), ' ');
  for (char& ch : token) {
    do {
      ch = static_cast<char>(0x20 + rng.uniform_index(0xe0));
    } while (ch == '"' || ch == '\\');
  }
  return token;
}

/// response_token over an exact-size heap copy of @p line, checking the
/// view it returns lies inside the copy and holds only bytes a JSON
/// string renders as themselves.
std::string token_of(std::string_view line) {
  const std::unique_ptr<char[]> buf(new char[line.size() + 1]);
  char* const bytes = buf.get() + 1;  // no slack byte after the line
  std::memcpy(bytes, line.data(), line.size());
  const std::string_view token =
      response_token(std::string_view(bytes, line.size()));
  if (!token.empty()) {
    EXPECT_GE(token.data(), bytes);
    EXPECT_LE(token.data() + token.size(), bytes + line.size());
  }
  for (const char ch : token)
    EXPECT_TRUE(static_cast<unsigned char>(ch) >= 0x20 && ch != '"' &&
                ch != '\\')
        << "escapable byte " << int(static_cast<unsigned char>(ch));
  return std::string(token);
}

TEST(SvcIdSplice, EveryRendererRoundTripsTokensAndArbitraryIds) {
  util::Rng rng(20261017);
  const std::vector<Render> render = renderers();
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::string token = random_token(rng);
    const std::string id = trial % 8 == 0 ? std::string() : random_id(rng);
    for (std::size_t r = 0; r < render.size(); ++r) {
      const std::string line = render[r](token);
      ASSERT_EQ(token_of(line), token) << "renderer " << r;
      ASSERT_EQ(restore_response_id(line, id), render[r](id))
          << "renderer " << r << ", trial " << trial;
    }
  }
}

TEST(SvcIdSplice, EmptyIdRendersAsNullAndCarriesNoToken) {
  for (const Render& render : renderers()) {
    const std::string line = render("");
    EXPECT_EQ(line.rfind("{\"schema\":\"rat.svc.v1\",\"id\":null,", 0), 0u)
        << line;
    EXPECT_EQ(token_of(line), "");
    // With no token to replace, the line comes back as it was.
    EXPECT_EQ(restore_response_id(line, "x"), line);
  }
}

TEST(SvcIdSplice, AnEscapedIdIsNeverReadAsAToken) {
  // A client id reaches the wire escaped; only an id that renders as
  // itself reads back.
  util::Rng rng(7);
  const std::vector<Render> render = renderers();
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::string id = random_id(rng);
    const bool verbatim =
        !id.empty() && id.find_first_of(std::string("\"\\", 2)) ==
                           std::string::npos &&
        std::none_of(id.begin(), id.end(), [](char ch) {
          return static_cast<unsigned char>(ch) < 0x20;
        });
    const std::string got = token_of(render[trial % render.size()](id));
    EXPECT_EQ(got, verbatim ? id : std::string()) << "trial " << trial;
  }
}

TEST(SvcIdSplice, TruncatedLinesYieldTheTokenOrNothing) {
  util::Rng rng(11);
  const std::vector<Render> render = renderers();
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::string token = random_token(rng);
    const std::string line = render[trial % render.size()](token);
    // The token is only known once its closing quote and the status key
    // that follows have arrived.
    const std::size_t known = line.find(kStatusKey) + kStatusKey.size();
    for (int cut = 0; cut < 8; ++cut) {
      // Half the cuts land in the head, where the token is.
      const std::size_t n = rng.uniform_index(
          (cut % 2 ? line.size() : std::min(line.size(), known + 8)) + 1);
      EXPECT_EQ(token_of(std::string_view(line).substr(0, n)),
                n >= known ? token : std::string())
          << "cut at " << n << " of " << line.size();
    }
  }
}

TEST(SvcIdSplice, FlippedBytesYieldTheTokenNothingOrTheFlippedToken) {
  // A flip inside the token's own bytes can turn it into another
  // well-formed token, which no parser can tell apart; any other flip
  // leaves the token intact or makes the line carry none.
  util::Rng rng(13);
  const std::vector<Render> render = renderers();
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::string token = random_token(rng);
    const std::string line = render[trial % render.size()](token);
    const std::size_t first = line.find("\"id\":\"") + 6;  // token bytes
    for (int flip = 0; flip < 8; ++flip) {
      std::string bad = line;
      const std::size_t at = rng.uniform_index(
          flip % 2 ? bad.size() : std::min(bad.size(), first + 32));
      bad[at] = static_cast<char>(bad[at] ^ (1 + rng.uniform_index(255)));
      const std::string got = token_of(bad);
      if (got.empty() || got == token) {
        // Whatever was returned, restore_response_id agrees with it.
        if (got.empty()) {
          EXPECT_EQ(restore_response_id(bad, "x"), bad);
        }
        continue;
      }
      ASSERT_TRUE(at >= first && at < first + token.size())
          << "flip at " << at << " yielded '" << got << "'";
      std::string expected = token;
      expected[at - first] = bad[at];
      EXPECT_EQ(got, expected);
    }
  }
}

}  // namespace
}  // namespace rat::svc
