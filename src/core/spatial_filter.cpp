#include "core/spatial_filter.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace krr {

SpatialFilter::SpatialFilter(double rate, std::uint64_t modulus)
    : modulus_(modulus),
      mask_(modulus > 1 && std::has_single_bit(modulus) ? modulus - 1 : 0) {
  if (modulus == 0) throw std::invalid_argument("sampling modulus must be > 0");
  if (!(rate > 0.0) || rate > 1.0) {
    throw std::invalid_argument("sampling rate must be in (0, 1]");
  }
  threshold_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(rate * static_cast<double>(modulus))));
  threshold_ = std::min(threshold_, modulus_);
}

double adaptive_sampling_rate(double base_rate, std::uint64_t distinct_objects,
                              std::uint64_t min_objects) {
  if (distinct_objects == 0) return 1.0;
  const double needed = static_cast<double>(min_objects) /
                        static_cast<double>(distinct_objects);
  return std::min(1.0, std::max(base_rate, needed));
}

}  // namespace krr
