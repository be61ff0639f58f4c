// Numeric formatting helpers used by worksheets, tables and benches.
//
// The paper reports times in scientific notation with three significant
// figures ("5.56E-6 secs") and utilizations as integer percentages; these
// helpers reproduce that style so our output is directly comparable.
#pragma once

#include <string>

namespace rat::util {

/// Format @p value like the paper's tables: "5.56E-6". Three significant
/// figures, uppercase exponent marker, no '+' on positive exponents.
std::string sci(double value, int sig_figs = 3);

/// Format as a percentage with @p decimals fractional digits: "15%", "0.4%".
/// @p fraction is in [0,1] units (0.15 -> "15%").
std::string percent(double fraction, int decimals = 0);

/// Fixed-point decimal with @p decimals fractional digits ("10.6").
std::string fixed(double value, int decimals = 1);

// The two appenders below are std::to_chars: locale-independent, they
// write into the caller's buffer, and their bytes are exactly those of
// the C printf conversion each names ("nan", "-nan", "inf", "-inf"
// included). fixed, percent and io::json_number are built on them.

/// Append printf("%.*f", decimals, value): every integer digit, then
/// @p decimals fractional digits (a negative count means 6, as in printf).
void append_fixed(std::string& out, double value, int decimals);

/// Append the first of printf "%.15g", "%.16g" and "%.17g" whose text
/// parses back (std::from_chars) to @p x. That is not always the shortest
/// round-trip text: denorm_min is "4.94065645841247e-324", not "5e-324".
/// NaN never compares equal, so it takes "%.17g", which prints "nan".
///
/// A normal x takes one pass: std::to_chars gives its shortest
/// round-trip digits, n of them, and they are laid out as "%.Pg" would.
/// The bytes are the three trials' because "%.Pg" prints the P-digit
/// decimal nearest x. With n <= 15 that is the shortest digits (x lies
/// within half a binary ulp of them, under half a step of the 15-digit
/// grid), so "%.15g" prints them and parses back. With n = 17 neither
/// "%.15g" nor "%.16g" can parse back, and the nearest 17-digit decimal
/// is the shortest digits. With n = 16, "%.15g" fails, and the nearest
/// 16-digit decimal lies no farther from x than the shortest digits; when
/// x's significand is not a power of two, x's rounding interval is
/// symmetric, so that decimal is inside it and is the shortest digits.
/// A power-of-two significand has a lower neighbour half as far away as
/// the upper one, so "%.16g" can miss (0x1p-921 takes "%.17g"'s
/// "5.6412324245775924e-278", not "5.641232424577593e-278"). That case,
/// zero, subnormal and non-finite x keep the three trials.
void append_round_trip(std::string& out, double x);

/// Human-readable byte count ("2.0 KB", "1.0 GB"); powers of 1024.
std::string bytes(double n);

/// Human-readable SI rate, e.g. hertz or ops/s ("150 MHz" with unit="Hz").
std::string si(double value, const std::string& unit);

/// Left-pad / right-pad a string with spaces to @p width.
std::string pad_left(const std::string& s, std::size_t width);
std::string pad_right(const std::string& s, std::size_t width);

/// True when |a-b| <= tol * max(|a|,|b|,1e-300). Used throughout tests.
bool approx_equal(double a, double b, double rel_tol = 1e-9);

}  // namespace rat::util
