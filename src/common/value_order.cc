#include "common/value_order.h"

#include <bit>
#include <limits>
#include <utility>

#include "common/check.h"

namespace mdc {
namespace {

constexpr int kDigitBits = 11;
constexpr int kDigits = 6;  // 6 × 11 bits cover the 64-bit key.
constexpr size_t kBuckets = size_t{1} << kDigitBits;
constexpr uint64_t kDigitMask = kBuckets - 1;
constexpr uint64_t kSignBit = uint64_t{1} << 63;

// Unsigned key whose order is the `<` order of the (non-NaN) doubles:
// -0.0 becomes +0.0 first (they tie under `<`), then non-negatives get
// the sign bit set and negatives have every bit flipped.
uint64_t OrderKey(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v);
  const uint64_t negative = uint64_t{0} - (bits >> 63);
  return bits ^ (negative | kSignBit);
}

size_t Digit(uint64_t key, int digit) {
  return static_cast<size_t>((key >> (digit * kDigitBits)) & kDigitMask);
}

}  // namespace

std::vector<uint32_t> StableValueOrder(const std::vector<double>& values) {
  const size_t n = values.size();
  MDC_CHECK_MSG(n <= std::numeric_limits<uint32_t>::max(),
                "StableValueOrder: more than UINT32_MAX rows");
  std::vector<uint32_t> order(n);
  if (n == 0) return order;

  // Keys stay in row order; the passes move only row indices and read
  // each row's key through its index. That moves 4 bytes per row and
  // pass instead of a 16-byte (key, row) pair (docs/performance.md has
  // the measurement).
  std::vector<uint64_t> keys(n);
  std::vector<uint32_t> histograms(kDigits * kBuckets, 0);
  bool saw_nan = false;
  for (size_t i = 0; i < n; ++i) {
    saw_nan |= values[i] != values[i];
    const uint64_t key = OrderKey(values[i]);
    keys[i] = key;
    order[i] = static_cast<uint32_t>(i);
    for (int d = 0; d < kDigits; ++d) {
      ++histograms[d * kBuckets + Digit(key, d)];
    }
  }
  MDC_CHECK_MSG(!saw_nan, "StableValueOrder: NaN has no place in the order");

  std::vector<uint32_t> scratch(n);
  uint32_t* src = order.data();
  uint32_t* dst = scratch.data();
  for (int d = 0; d < kDigits; ++d) {
    uint32_t* offsets = &histograms[d * kBuckets];
    // A digit shared by every key leaves the order unchanged.
    if (offsets[Digit(keys[0], d)] == n) continue;
    uint32_t sum = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint32_t count = offsets[b];
      offsets[b] = sum;
      sum += count;
    }
    // Rows are scattered in their current order, so equal digits keep
    // it: every pass is stable, and the first starts in row order.
    for (size_t i = 0; i < n; ++i) {
      const uint32_t row = src[i];
      dst[offsets[Digit(keys[row], d)]++] = row;
    }
    std::swap(src, dst);
  }
  if (src != order.data()) order.swap(scratch);
  return order;
}

}  // namespace mdc
