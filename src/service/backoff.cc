#include "service/backoff.h"

#include <algorithm>

namespace mdc::service {
namespace {

// splitmix64: small, seedable, platform-stable — delays must be
// reproducible for a fixed config on any libc.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t BackoffSalt(std::string_view text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

BackoffSequence::BackoffSequence(int64_t base_ms, int64_t max_ms, bool jitter,
                                 uint64_t seed, uint64_t salt)
    : base_ms_(base_ms),
      max_ms_(max_ms),
      jitter_(jitter),
      rng_state_(seed ^ salt),
      prev_ms_(base_ms) {}

int64_t BackoffSequence::NextDelayMs(int retry_number) {
  if (base_ms_ <= 0) return 0;
  if (!jitter_) {
    int64_t delay = base_ms_;
    for (int i = 1; i < retry_number && delay < max_ms_; ++i) {
      delay *= 2;
    }
    return std::min(delay, max_ms_);
  }
  // Decorrelated jitter: uniform over [base, min(max, 3 * previous)].
  int64_t ceiling = std::min(max_ms_, prev_ms_ > max_ms_ / 3
                                          ? max_ms_
                                          : 3 * prev_ms_);
  if (ceiling < base_ms_) ceiling = base_ms_;
  uint64_t span = static_cast<uint64_t>(ceiling - base_ms_) + 1;
  int64_t delay =
      base_ms_ + static_cast<int64_t>(SplitMix64(&rng_state_) % span);
  prev_ms_ = delay;
  return delay;
}

}  // namespace mdc::service
