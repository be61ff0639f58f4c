// rat.svc.v1 request parsing (strict) and response rendering.
#include "svc/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/parameters.hpp"
#include "core/throughput.hpp"
#include "io/json.hpp"
#include "svc/fingerprint.hpp"

namespace rat::svc {
namespace {

Request parse_ok(const std::string& line) {
  Request req;
  EXPECT_NO_THROW(req = parse_request(line)) << line;
  return req;
}

/// Expect a ProtocolError whose message contains @p needle, echoing @p id.
void expect_rejected(const std::string& line, const std::string& needle,
                     const std::string& id = "") {
  try {
    parse_request(line);
    FAIL() << "accepted: " << line;
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), SvcErrorCode::kBadRequest) << line;
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message '" << e.what() << "' lacks '" << needle << "'";
    EXPECT_EQ(e.id(), id);
  }
}

TEST(SvcProtocol, ParsesFullEvaluateRequest) {
  const Request req = parse_ok(
      "{\"schema\":\"rat.svc.v1\",\"id\":\"r1\",\"op\":\"evaluate\","
      "\"worksheet\":\"name = x\\n\",\"deadline_ms\":250,"
      "\"no_cache\":true}");
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.op, Request::Op::kEvaluate);
  EXPECT_TRUE(req.has_worksheet);
  EXPECT_EQ(req.worksheet, "name = x\n");
  EXPECT_FALSE(req.has_file);
  EXPECT_EQ(req.deadline_ms, 250.0);
  EXPECT_TRUE(req.no_cache);
}

TEST(SvcProtocol, SchemaAndIdAreOptional) {
  const Request req = parse_ok("{\"op\":\"ping\"}");
  EXPECT_EQ(req.op, Request::Op::kPing);
  EXPECT_TRUE(req.id.empty());
}

TEST(SvcProtocol, StrictRejections) {
  expect_rejected("not json", "");
  expect_rejected("[1,2]", "must be a JSON object");
  expect_rejected("{\"op\":\"ping\",\"extra\":1}", "unknown request member");
  expect_rejected("{\"op\":\"fly\"}", "unknown op");
  expect_rejected("{\"op\":7}", "\"op\" must be a string");
  expect_rejected("{\"id\":7,\"op\":\"ping\"}", "\"id\" must be a string");
  expect_rejected("{\"schema\":\"rat.svc.v2\",\"op\":\"ping\"}", "schema");
  expect_rejected("{\"op\":\"evaluate\"}", "exactly one of");
  expect_rejected(
      "{\"op\":\"evaluate\",\"worksheet\":\"w\",\"file\":\"f\"}",
      "exactly one of");
  expect_rejected("{\"op\":\"ping\",\"worksheet\":\"w\"}",
                  "only apply to op \"evaluate\"");
  expect_rejected(
      "{\"op\":\"evaluate\",\"worksheet\":\"w\",\"deadline_ms\":0}",
      "positive");
  expect_rejected(
      "{\"op\":\"evaluate\",\"worksheet\":\"w\",\"deadline_ms\":-5}",
      "positive");
  // Non-finite literals die in the JSON layer before the deadline check.
  expect_rejected(
      "{\"op\":\"evaluate\",\"worksheet\":\"w\",\"deadline_ms\":1e999}",
      "number");
  // So do spellings outside RFC 8259's number grammar.
  expect_rejected(
      "{\"op\":\"evaluate\",\"worksheet\":\"w\",\"deadline_ms\":01}",
      "bad number");
  expect_rejected("{\"op\":\"ping\",\"deadline_ms\":1.}", "bad number");
  expect_rejected(
      "{\"op\":\"evaluate\",\"worksheet\":\"w\",\"no_cache\":1}",
      "boolean");
}

TEST(SvcProtocol, RecoveredIdRidesOnTheError) {
  // The id is extracted before strict member validation, so even a
  // rejected request gets a correlatable error response.
  expect_rejected("{\"id\":\"r9\",\"op\":\"ping\",\"bogus\":true}",
                  "unknown request member", "r9");
}

TEST(SvcProtocol, EvaluateResponseIsValidJsonWithPerClockPayload) {
  const core::RatInputs inputs = core::pdf1d_inputs();
  const std::vector<core::ThroughputPrediction> preds =
      core::predict_all(inputs);
  const std::string line =
      evaluate_response("r1", fingerprint(inputs), inputs, preds);
  const io::JsonValue doc = io::parse_json(line);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->string, kProtocolSchema);
  EXPECT_EQ(doc.find("id")->string, "r1");
  EXPECT_EQ(doc.find("status")->string, "ok");
  EXPECT_EQ(doc.find("fingerprint")->string,
            fingerprint_hex(fingerprint(inputs)));
  ASSERT_TRUE(doc.find("inputs")->is_object());
  ASSERT_TRUE(doc.find("predictions")->is_array());
  EXPECT_EQ(doc.find("predictions")->items.size(), preds.size());
}

TEST(SvcProtocol, ErrorResponsesCarryCodeAndNullIdWhenUnknown) {
  const io::JsonValue doc = io::parse_json(
      error_response("", SvcErrorCode::kOverloaded, "queue full"));
  EXPECT_TRUE(doc.find("id")->is_null());
  EXPECT_EQ(doc.find("status")->string, "error");
  const io::JsonValue* err = doc.find("error");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->find("code")->string, "E_OVERLOADED");
  EXPECT_EQ(err->find("message")->string, "queue full");
}

TEST(SvcProtocol, DiagnosticResponseReusesCoreErrorCodes) {
  core::Diagnostic d{"<request>", 3, 18, core::ParseErrorCode::kBadList,
                     "fclock_hz", "not a number: 'oops'"};
  const io::JsonValue doc = io::parse_json(diagnostic_response("r2", d));
  const io::JsonValue* err = doc.find("error");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->find("code")->string, "E_BAD_LIST");
  const io::JsonValue* diag = err->find("diagnostic");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->find("line")->number, 3.0);
  EXPECT_EQ(diag->find("column")->number, 18.0);
  EXPECT_EQ(diag->find("key")->string, "fclock_hz");
}

TEST(SvcProtocol, PingAndShutdownRender) {
  const io::JsonValue pong = io::parse_json(pong_response("p"));
  EXPECT_EQ(pong.find("op")->string, "ping");
  EXPECT_EQ(pong.find("status")->string, "ok");
  const io::JsonValue down = io::parse_json(shutdown_response("s"));
  EXPECT_EQ(down.find("op")->string, "shutdown");
  EXPECT_TRUE(down.find("draining")->boolean);
}

TEST(SvcProtocol, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(svc_error_code_name(SvcErrorCode::kBadRequest),
               "E_BAD_REQUEST");
  EXPECT_STREQ(svc_error_code_name(SvcErrorCode::kOverloaded),
               "E_OVERLOADED");
  EXPECT_STREQ(svc_error_code_name(SvcErrorCode::kDeadlineExpired),
               "E_DEADLINE_EXPIRED");
  EXPECT_STREQ(svc_error_code_name(SvcErrorCode::kShuttingDown),
               "E_SHUTTING_DOWN");
}

}  // namespace
}  // namespace rat::svc
