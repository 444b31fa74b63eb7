#include "ptest/sim/shared_memory.hpp"

namespace ptest::sim {

std::size_t SharedSram::reserve(std::size_t size, std::size_t alignment) {
  if (alignment == 0 || (alignment & (alignment - 1)) != 0) {
    throw std::invalid_argument("SharedSram::reserve: bad alignment");
  }
  // reserved_ <= size() keeps the round-up from wrapping; the size test
  // is a subtraction so a huge `size` cannot wrap past the end either.
  const std::size_t aligned = (reserved_ + alignment - 1) & ~(alignment - 1);
  if (aligned > bytes_.size() || size > bytes_.size() - aligned) {
    throw std::length_error("SharedSram::reserve: out of shared memory");
  }
  reserved_ = aligned + size;
  return aligned;
}

}  // namespace ptest::sim
