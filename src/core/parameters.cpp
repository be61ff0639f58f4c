#include "core/parameters.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/units.hpp"
#include "io/diagnostics.hpp"
#include "util/format.hpp"

namespace rat::core {

namespace {

/// Builds the message only on failure: validate() runs once per predict()
/// and per batch point, so a passing check must not allocate.
void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("RatInputs: ") + what);
}

/// Throws the ParseError for one worksheet failure. Diagnostic strings
/// are built only here, on the way out: a successful parse copies no key
/// or line.
[[noreturn]] void fail(const std::string& origin, std::size_t line,
                       std::size_t column, ParseErrorCode code,
                       std::string_view key, std::string message) {
  throw ParseError(
      {origin, line, column, code, std::string(key), std::move(message)});
}

/// Strict, locale-independent number parsing for one worksheet value
/// token. std::from_chars never consults the global locale (std::stod
/// does, so "75.5" failed under comma-decimal locales) and reports
/// overflow as a result code instead of letting std::out_of_range escape
/// without the key name. All failures become ParseError carrying the
/// origin, position and offending key.
double parse_double_token(std::string_view token, const std::string& origin,
                          std::size_t line, std::size_t column,
                          std::string_view key, ParseErrorCode code) {
  std::string_view t = token;
  if (!t.empty() && t.front() == '+') t.remove_prefix(1);  // from_chars: no '+'
  if (t.empty())
    fail(origin, line, column, code, key, "empty value, expected a number");
  double x = 0.0;
  const auto r = std::from_chars(t.data(), t.data() + t.size(), x);
  if (r.ec == std::errc::invalid_argument)
    fail(origin, line, column, code, key,
         "not a number: '" + std::string(token) + "'");
  if (r.ec == std::errc::result_out_of_range)
    fail(origin, line, column, code, key,
         "number out of range: '" + std::string(token) + "'");
  if (r.ptr != t.data() + t.size())
    fail(origin, line, column, code, key,
         "trailing characters after number: '" + std::string(token) + "'");
  if (!std::isfinite(x))
    fail(origin, line, column, code, key,
         "non-finite value: '" + std::string(token) + "'");
  return x;
}

std::size_t parse_count_token(std::string_view token,
                              const std::string& origin, std::size_t line,
                              std::size_t column, std::string_view key) {
  const double x = parse_double_token(token, origin, line, column, key,
                                      ParseErrorCode::kBadCount);
  // 2^53: largest range where every integer is exact in a double.
  if (x < 0.0 || x != std::floor(x) || x > 9007199254740992.0)
    fail(origin, line, column, ParseErrorCode::kBadCount, key,
         "expected a non-negative integer, got '" + std::string(token) +
             "'");
  return static_cast<std::size_t>(x);
}

/// The worksheet keys, in serialize() order. parse() marks a key seen by
/// setting the bit of its index.
enum Key : unsigned {
  kName, kElementsIn, kElementsOut, kBytesPerElement, kIdealBandwidth,
  kAlphaWrite, kAlphaRead, kOpsPerElement, kThroughputProc, kFclock,
  kTsoft, kIterations, kKeyCount
};

constexpr std::string_view kKeyNames[kKeyCount] = {
    "name", "elements_in", "elements_out", "bytes_per_element",
    "ideal_bw_bytes_per_sec", "alpha_write", "alpha_read",
    "ops_per_element", "throughput_ops_per_cycle", "fclock_hz",
    "tsoft_sec", "n_iterations"};

/// The blanks the grammar skips around keys, values and clock tokens.
constexpr std::string_view kBlanks = " \t";

std::string_view trim(std::string_view s) {
  const auto b = s.find_first_not_of(kBlanks);
  if (b == std::string_view::npos) return {};
  return s.substr(b, s.find_last_not_of(kBlanks) - b + 1);
}

}  // namespace

void RatInputs::validate() const {
  require(!name.empty(), "name is empty");
  require(dataset.elements_in > 0, "elements_in must be positive");
  // elements_out == 0 is legal: some designs retain all results on-chip
  // until a final drain that is modelled separately.
  require(dataset.bytes_per_element > 0.0, "bytes_per_element must be > 0");
  require(comm.ideal_bw_bytes_per_sec > 0.0, "ideal bandwidth must be > 0");
  require(comm.alpha_write > 0.0 && comm.alpha_write <= 1.0,
          "alpha_write outside (0,1]");
  require(comm.alpha_read > 0.0 && comm.alpha_read <= 1.0,
          "alpha_read outside (0,1]");
  require(comp.ops_per_element > 0.0, "ops_per_element must be > 0");
  require(comp.throughput_ops_per_cycle > 0.0,
          "throughput_proc must be > 0");
  require(!comp.fclock_hz.empty(), "no candidate clock frequencies");
  for (double f : comp.fclock_hz)
    require(f > 0.0, "non-positive clock frequency");
  require(software.tsoft_sec > 0.0, "tsoft must be > 0");
  require(software.n_iterations > 0, "Niter must be positive");
}

util::Table RatInputs::to_table() const {
  util::Table t({"Parameter", "Value"});
  t.add_row({"Dataset Parameters", ""});
  t.add_row({"  Nelements, input (elements)",
             std::to_string(dataset.elements_in)});
  t.add_row({"  Nelements, output (elements)",
             std::to_string(dataset.elements_out)});
  t.add_row({"  Nbytes/element (bytes/element)",
             util::fixed(dataset.bytes_per_element, 0)});
  t.add_row({"Communication Parameters", ""});
  t.add_row({"  throughput_ideal (MB/s)",
             util::fixed(comm.ideal_bw_bytes_per_sec / 1e6, 0)});
  t.add_row({"  alpha_write (0 < a <= 1)", util::fixed(comm.alpha_write, 2)});
  t.add_row({"  alpha_read (0 < a <= 1)", util::fixed(comm.alpha_read, 2)});
  t.add_row({"Computation Parameters", ""});
  t.add_row({"  Nops/element (ops/element)",
             util::fixed(comp.ops_per_element, 0)});
  t.add_row({"  throughput_proc (ops/cycle)",
             util::fixed(comp.throughput_ops_per_cycle, 0)});
  std::string clocks;
  for (std::size_t i = 0; i < comp.fclock_hz.size(); ++i) {
    if (i) clocks += "/";
    clocks += util::fixed(to_mhz(comp.fclock_hz[i]), 0);
  }
  t.add_row({"  fclock (MHz)", clocks});
  t.add_row({"Software Parameters", ""});
  t.add_row({"  tsoft (sec)", util::fixed(software.tsoft_sec, 3)});
  t.add_row({"  Niter (iterations)",
             std::to_string(software.n_iterations)});
  return t;
}

std::string RatInputs::serialize() const {
  std::ostringstream os;
  os.precision(17);
  os << "name = " << name << '\n';
  os << "elements_in = " << dataset.elements_in << '\n';
  os << "elements_out = " << dataset.elements_out << '\n';
  os << "bytes_per_element = " << dataset.bytes_per_element << '\n';
  os << "ideal_bw_bytes_per_sec = " << comm.ideal_bw_bytes_per_sec << '\n';
  os << "alpha_write = " << comm.alpha_write << '\n';
  os << "alpha_read = " << comm.alpha_read << '\n';
  os << "ops_per_element = " << comp.ops_per_element << '\n';
  os << "throughput_ops_per_cycle = " << comp.throughput_ops_per_cycle
     << '\n';
  os << "fclock_hz =";
  for (double f : comp.fclock_hz) os << ' ' << f;
  os << '\n';
  os << "tsoft_sec = " << software.tsoft_sec << '\n';
  os << "n_iterations = " << software.n_iterations << '\n';
  return os.str();
}

RatInputs RatInputs::parse(const std::string& text) {
  return parse(text, "<string>");
}

RatInputs RatInputs::parse(const std::string& text,
                           const std::string& origin) {
  constexpr auto npos = std::string_view::npos;
  RatInputs in;
  std::uint32_t seen = 0;  // bit k set: kKeyNames[k] appeared
  std::size_t line_no = 0;
  const std::string_view all = text;
  for (std::size_t next = 0; next < all.size();) {
    std::size_t end = all.find('\n', next);
    if (end == npos) end = all.size();
    std::string_view line = all.substr(next, end - next);
    next = end + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);  // CRLF
    const auto first = line.find_first_not_of(kBlanks);
    if (first == npos || line[first] == '#') continue;
    const auto eq = line.find('=');
    if (eq == npos)
      fail(origin, line_no, first + 1, ParseErrorCode::kMissingEquals, "",
           "missing '=' in: " + std::string(line));
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    const std::size_t key_col = first + 1;
    // Where the value starts in the raw line (1-based), for diagnostics.
    std::size_t value_begin = line.find_first_not_of(kBlanks, eq + 1);
    if (value_begin == npos) value_begin = line.size();
    const std::size_t value_col = value_begin + 1;
    if (key.empty())
      fail(origin, line_no, key_col, ParseErrorCode::kUnknownKey, "",
           "empty key before '='");
    const auto k = static_cast<std::size_t>(
        std::find(std::begin(kKeyNames), std::end(kKeyNames), key) -
        std::begin(kKeyNames));
    if (k == kKeyCount)
      fail(origin, line_no, key_col, ParseErrorCode::kUnknownKey, key,
           "unknown key");
    if (seen & (1u << k))
      fail(origin, line_no, key_col, ParseErrorCode::kDuplicateKey, key,
           "duplicate key (appears more than once)");
    seen |= 1u << k;
    auto as_double = [&] {
      return parse_double_token(value, origin, line_no, value_col, key,
                                ParseErrorCode::kBadNumber);
    };
    auto as_size = [&] {
      return parse_count_token(value, origin, line_no, value_col, key);
    };
    switch (static_cast<Key>(k)) {
      case kName: in.name = value; break;
      case kElementsIn: in.dataset.elements_in = as_size(); break;
      case kElementsOut: in.dataset.elements_out = as_size(); break;
      case kBytesPerElement: in.dataset.bytes_per_element = as_double(); break;
      case kIdealBandwidth: in.comm.ideal_bw_bytes_per_sec = as_double(); break;
      case kAlphaWrite: in.comm.alpha_write = as_double(); break;
      case kAlphaRead: in.comm.alpha_read = as_double(); break;
      case kOpsPerElement: in.comp.ops_per_element = as_double(); break;
      case kThroughputProc:
        in.comp.throughput_ops_per_cycle = as_double();
        break;
      case kFclock:
        // Token-wise over the raw line so a malformed entry is rejected
        // here, at its exact column, instead of being silently dropped
        // (`75e6 oops` used to parse as one clock) or surfacing later as
        // a confusing empty-list validate() message.
        for (std::size_t pos = value_begin; pos < line.size();) {
          const std::size_t tb = line.find_first_not_of(kBlanks, pos);
          if (tb == npos) break;
          std::size_t te = line.find_first_of(kBlanks, tb);
          if (te == npos) te = line.size();
          in.comp.fclock_hz.push_back(
              parse_double_token(line.substr(tb, te - tb), origin, line_no,
                                 tb + 1, key, ParseErrorCode::kBadList));
          pos = te;
        }
        if (in.comp.fclock_hz.empty())
          fail(origin, line_no, value_col, ParseErrorCode::kBadList, key,
               "empty clock list");
        break;
      case kTsoft: in.software.tsoft_sec = as_double(); break;
      case kIterations: in.software.n_iterations = as_size(); break;
      case kKeyCount: break;  // unreachable: rejected as unknown above
    }
  }
  if (!(seen & (1u << kName)))
    fail(origin, 0, 0, ParseErrorCode::kMissingName, "name",
         "missing 'name' key");
  return in;
}

RatInputs pdf1d_inputs() {
  RatInputs in;
  in.name = "1-D PDF estimation";
  in.dataset = DatasetParams{512, 1, 4.0};
  in.comm = CommunicationParams{mbps(1000.0), 0.37, 0.16};
  in.comp = ComputationParams{768.0, 20.0, {mhz(75), mhz(100), mhz(150)}};
  in.software = SoftwareParams{0.578, 400};
  return in;
}

RatInputs pdf2d_inputs() {
  RatInputs in;
  in.name = "2-D PDF estimation";
  in.dataset = DatasetParams{1024, 65536, 4.0};
  in.comm = CommunicationParams{mbps(1000.0), 0.37, 0.16};
  in.comp = ComputationParams{393216.0, 48.0, {mhz(75), mhz(100), mhz(150)}};
  in.software = SoftwareParams{158.8, 400};
  return in;
}

RatInputs md_inputs() {
  RatInputs in;
  in.name = "Molecular dynamics";
  in.dataset = DatasetParams{16384, 16384, 36.0};
  in.comm = CommunicationParams{mbps(500.0), 0.9, 0.9};
  in.comp = ComputationParams{164000.0, 50.0, {mhz(75), mhz(100), mhz(150)}};
  // tsoft: the printed table cell is corrupt in the source scan; 5.78 s is
  // implied by Table 9 (speedup 10.7 at tRC 5.40E-1, and actual 6.6 at
  // 8.80E-1). Single iteration: the whole dataset resides on the FPGA.
  in.software = SoftwareParams{5.78, 1};
  return in;
}

}  // namespace rat::core
