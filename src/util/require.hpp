// The one positivity rule for argument guards. `x <= 0.0` is false for a
// NaN, so a guard written that way lets a NaN through; !(x > 0.0)
// rejects zero, negatives and NaN alike. scripts/check.sh fails when a
// new guard is written the first way.
#pragma once

#include <stdexcept>

namespace rat::util {

/// Throw E(@p what) unless @p x > 0 (a NaN is rejected). The message is
/// the caller's whole text, so each guard keeps its own.
template <class E = std::invalid_argument>
void require_positive(double x, const char* what) {
  if (!(x > 0.0)) throw E(what);
}

}  // namespace rat::util
