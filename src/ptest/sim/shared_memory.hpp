// Shared internal SRAM of the simulated OMAP5912 (250 KB on the real part).
//
// Both cores read and write it; the bridge places its command/response
// rings here.  Accesses are bounds-checked; a trivial bump allocator hands
// out non-overlapping regions to subsystems at setup time (the real
// platform assigns these regions in the board support package).
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace ptest::sim {

class SharedSram {
 public:
  static constexpr std::size_t kDefaultSize = 250 * 1024;

  explicit SharedSram(std::size_t size = kDefaultSize) : bytes_(size, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }

  /// Reserves `size` bytes aligned to `alignment`; returns the offset.
  /// Throws std::length_error when the SRAM is exhausted.
  [[nodiscard]] std::size_t reserve(std::size_t size,
                                    std::size_t alignment = 8);

  /// Remaining unreserved bytes.
  [[nodiscard]] std::size_t available() const noexcept {
    return bytes_.size() - reserved_;
  }

  template <typename T>
  [[nodiscard]] T read(std::size_t offset) const {
    static_assert(std::is_trivially_copyable_v<T>);
    check(offset, sizeof(T));
    T value;
    std::memcpy(&value, bytes_.data() + offset, sizeof(T));
    return value;
  }

  template <typename T>
  void write(std::size_t offset, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    check(offset, sizeof(T));
    std::memcpy(bytes_.data() + offset, &value, sizeof(T));
  }

 private:
  // Written so no sum can wrap: offset comes from callers and may be
  // anything up to SIZE_MAX.
  void check(std::size_t offset, std::size_t size) const {
    if (size > bytes_.size() || offset > bytes_.size() - size) {
      throw std::out_of_range("SharedSram: access of " + std::to_string(size) +
                              " bytes at " + std::to_string(offset) +
                              " beyond size " + std::to_string(bytes_.size()));
    }
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t reserved_ = 0;
};

}  // namespace ptest::sim
