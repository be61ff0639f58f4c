// How the Eqs. 1-11 evaluations run, as the rat.bench.v1 records report
// it: one scalar predict() or predict_unchecked() call per point, so both
// values are constants. Kept for ratbench/driver.cpp until the next
// benchmark change drops them.
#pragma once

#include <cstddef>

namespace rat::core {

inline const char* simd_backend() noexcept { return "scalar"; }
inline std::size_t simd_width() noexcept { return 1; }

}  // namespace rat::core
