#pragma once
/// \file reference_sum_order.hpp
/// \brief Scalar reference for the summation order documented at la::dot,
/// written independently of la:: so tests can pin that order bitwise:
/// blocks of 4096 entries; inside a block, lane l sums the terms
/// i = l (mod 8) and the lanes combine as ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7));
/// block partials are added to zero in block order.

#include <algorithm>
#include <cstddef>
#include <span>

namespace sdcgmres::reference {

template <typename S>
S dot(std::span<const S> x, std::span<const S> y) {
  constexpr std::size_t kBlock = 4096;
  constexpr std::size_t kLanes = 8;
  S total = S(0);
  for (std::size_t start = 0; start < x.size(); start += kBlock) {
    const std::size_t stop = std::min(x.size(), start + kBlock);
    S lane[kLanes] = {};
    for (std::size_t i = start; i < stop; ++i) lane[i % kLanes] += x[i] * y[i];
    total += ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
             ((lane[4] + lane[5]) + (lane[6] + lane[7]));
  }
  return total;
}

} // namespace sdcgmres::reference
