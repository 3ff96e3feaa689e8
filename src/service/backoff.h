// Retry-delay law shared by every supervised retry loop: the service
// worker's job attempts and the socket client's request round-trips.

#ifndef MDC_SERVICE_BACKOFF_H_
#define MDC_SERVICE_BACKOFF_H_

#include <cstdint>
#include <string_view>

namespace mdc::service {

// Retry-delay stream for one job's (or one request's) attempts. With
// jitter disabled the stream is the classic deterministic doubling base,
// 2*base, 4*base, ... capped at max. With jitter enabled it is bounded
// decorrelated jitter: each delay is drawn uniformly from
// [base, min(max, 3 * previous delay)], which keeps the exponential
// envelope but desynchronizes concurrent retry loops so multi-tenant load
// cannot form a synchronized retry storm. The draw stream is seeded from
// `seed` XOR `salt`, so delays are reproducible for a fixed config.
// Jitter affects only sleep durations: retry counters are charged at
// attempt commit points, never from timing.
class BackoffSequence {
 public:
  // `salt` decorrelates streams (callers pass a job-id hash).
  BackoffSequence(int64_t base_ms, int64_t max_ms, bool jitter,
                  uint64_t seed, uint64_t salt);

  // Delay before retry `retry_number` (1 = first retry). Always within
  // [0, max_ms]; with base_ms <= 0 always 0. Calls must be made with
  // retry_number increasing from 1 — the jittered stream is stateful.
  int64_t NextDelayMs(int retry_number);

 private:
  int64_t base_ms_;
  int64_t max_ms_;
  bool jitter_;
  uint64_t rng_state_;
  int64_t prev_ms_;
};

// FNV-1a over `text`; the salt BackoffSequence callers derive from a job
// id so per-job delay streams differ even under one seed.
uint64_t BackoffSalt(std::string_view text);

}  // namespace mdc::service

#endif  // MDC_SERVICE_BACKOFF_H_
