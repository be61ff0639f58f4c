#include "util/format.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace rat::util {

namespace {

/// Integer digits of the widest "%f" output: DBL_MAX has 309.
constexpr int kMaxIntegerDigits =
    std::numeric_limits<double>::max_exponent10 + 1;

/// Decimals the stack buffer of append_fixed holds; wider requests take
/// a heap buffer of the exact bound.
constexpr int kStackDecimals = 32;

/// std::to_chars of @p x into [first, last), which the caller sized for
/// the widest output of (@p fmt, @p precision), or of @p fmt's shortest
/// round-trip form when @p precision is omitted.
template <typename... Precision>
char* put_chars(char* first, char* last, double x, std::chars_format fmt,
                Precision... precision) {
  const std::to_chars_result r =
      std::to_chars(first, last, x, fmt, precision...);
  if (r.ec != std::errc{})
    throw std::logic_error("util: number buffer too small for to_chars");
  return r.ptr;
}

/// The shortest round-trip digits d1..dn of a finite x and its decimal
/// exponent, as std::to_chars writes them in scientific form.
struct Shortest {
  bool negative = false;
  char digits[17] = {};
  int n = 0;
  int exponent = 0;
};

Shortest shortest(double x) {
  char buf[32];  // "-1.2345678901234567e-308"
  const char* const end =
      put_chars(buf, buf + sizeof buf, x, std::chars_format::scientific);
  Shortest s;
  const char* p = buf;
  s.negative = *p == '-';
  if (s.negative) ++p;
  for (; *p != 'e'; ++p)
    if (*p != '.') s.digits[s.n++] = *p;
  const bool negative_exponent = p[1] == '-';
  for (p += 2; p != end; ++p) s.exponent = s.exponent * 10 + (*p - '0');
  if (negative_exponent) s.exponent = -s.exponent;
  return s;
}

/// True when @p x's 52 stored significand bits are all zero.
bool power_of_two_significand(double x) {
  return (std::bit_cast<std::uint64_t>(x) &
          ((std::uint64_t{1} << 52) - 1)) == 0;
}

/// Write @p s's digits at @p q as printf "%.<precision>g" writes them
/// when precision >= s.n (so no digit is rounded away and the trailing
/// zeros it drops are not written): d.ddde±XX when the exponent is
/// below -4 or at least @p precision, else positional. Returns the end.
char* put_g(char* q, const Shortest& s, int precision) {
  const char* const digits = s.digits;
  const int n = s.n;
  const int e = s.exponent;
  if (s.negative) *q++ = '-';
  if (e < -4 || e >= precision) {
    *q++ = digits[0];
    if (n > 1) {
      *q++ = '.';
      q = std::copy(digits + 1, digits + n, q);
    }
    *q++ = 'e';
    *q++ = e < 0 ? '-' : '+';
    const int magnitude = e < 0 ? -e : e;
    if (magnitude >= 100) *q++ = static_cast<char>('0' + magnitude / 100);
    *q++ = static_cast<char>('0' + magnitude / 10 % 10);
    *q++ = static_cast<char>('0' + magnitude % 10);
  } else if (e < 0) {  // 0.000ddd
    *q++ = '0';
    *q++ = '.';
    q = std::fill_n(q, -e - 1, '0');
    q = std::copy(digits, digits + n, q);
  } else if (n <= e + 1) {  // ddd000
    q = std::copy(digits, digits + n, q);
    q = std::fill_n(q, e + 1 - n, '0');
  } else {  // ddd.ddd
    q = std::copy(digits, digits + e + 1, q);
    *q++ = '.';
    q = std::copy(digits + e + 1, digits + n, q);
  }
  return q;
}

}  // namespace

void append_fixed(std::string& out, double value, int decimals) {
  // An integral value below 2^53 in magnitude (counts, MHz clocks) is
  // its integer's digits, then '.' and zeros: an integer to_chars is
  // much cheaper than the floating-point one. The cast is exact in
  // that range; NaN fails the comparison.
  if (std::fabs(value) < 0x1p53) {
    const auto whole = static_cast<std::int64_t>(value);
    if (static_cast<double>(whole) == value) {
      char digits[24];
      char* first = digits;
      if (whole == 0 && std::signbit(value)) *first++ = '-';  // "-0"
      char* last = std::to_chars(first, digits + sizeof digits, whole).ptr;
      out.append(digits, last);
      if (decimals != 0) {
        out += '.';
        out.append(decimals < 0 ? 6 : static_cast<std::size_t>(decimals),
                   '0');
      }
      return;
    }
  }
  // Sign, integer digits, '.', decimals; printf reads a negative
  // precision as 6.
  const std::size_t width =
      2 + kMaxIntegerDigits + static_cast<std::size_t>(std::max(decimals, 6));
  char stack[2 + kMaxIntegerDigits + kStackDecimals];
  std::string heap;
  char* buf = stack;
  if (width > sizeof stack) {
    heap.resize(width);
    buf = heap.data();
  }
  out.append(buf, put_chars(buf, buf + width, value, std::chars_format::fixed,
                            decimals));
}

void append_round_trip(std::string& out, double x) {
  // '-', 17 digits, '.', "e-308": 24 characters at most, and so is
  // "-0.0000" and 17 digits.
  char buf[32];
  if (std::isnormal(x)) {
    const Shortest s = shortest(x);
    if (s.n != 16 || !power_of_two_significand(x)) {
      out.append(buf, put_g(buf, s, s.n <= 15 ? 15 : s.n));
      return;
    }
  }
  char* end = buf;
  for (int precision = 15; precision <= 17; ++precision) {
    end = put_chars(buf, buf + sizeof buf, x, std::chars_format::general,
                    precision);
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == x) break;
  }
  out.append(buf, end);
}

std::string sci(double value, int sig_figs) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buf[64];
  // %E gives "5.56E-06"; strip the leading zero of the exponent and any '+'.
  std::snprintf(buf, sizeof(buf), "%.*E", std::max(0, sig_figs - 1), value);
  std::string s(buf);
  auto epos = s.find('E');
  if (epos == std::string::npos) return s;
  std::string mantissa = s.substr(0, epos);
  std::string exp = s.substr(epos + 1);
  bool neg = false;
  if (!exp.empty() && (exp[0] == '+' || exp[0] == '-')) {
    neg = exp[0] == '-';
    exp.erase(0, 1);
  }
  while (exp.size() > 1 && exp[0] == '0') exp.erase(0, 1);
  return mantissa + "E" + (neg ? "-" : "") + exp;
}

std::string percent(double fraction, int decimals) {
  std::string out;
  append_fixed(out, fraction * 100.0, decimals);
  out += '%';
  return out;
}

std::string fixed(double value, int decimals) {
  std::string out;
  append_fixed(out, value, decimals);
  return out;
}

std::string bytes(double n) {
  static const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (std::fabs(n) >= 1024.0 && u < 4) {
    n /= 1024.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f %s", n, units[u]);
  return buf;
}

std::string si(double value, const std::string& unit) {
  static const char* prefixes[] = {"", "K", "M", "G", "T"};
  int p = 0;
  while (std::fabs(value) >= 1000.0 && p < 4) {
    value /= 1000.0;
    ++p;
  }
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%g %s%s", value, prefixes[p], unit.c_str());
  return buf;
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

bool approx_equal(double a, double b, double rel_tol) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) <= rel_tol * scale;
}

}  // namespace rat::util
