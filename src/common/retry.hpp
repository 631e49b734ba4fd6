// Bounded retry with capped exponential backoff and decorrelated jitter,
// used by the GPU-facing stream stages and the serve layer to absorb
// transient device failures (failed copies, spurious launch errors,
// transient allocation pressure) before degrading to the CPU path.
//
// Policy and telemetry are deliberately tiny: stages run per stream item, so
// the fast path (first attempt succeeds) must cost one call, one branch and
// one relaxed atomic increment — no allocation.
//
// Delays are jittered rather than a fixed staircase: when a fault burst hits
// every farm worker at once, a fixed 50/100/200us ladder would send all of
// them back to the sick device in lockstep, re-colliding on every rung.
// Decorrelated jitter (Brooker, "Exponential Backoff And Jitter") spreads
// the retry times:
//
//   delay[0]   = uniform(base, base * growth)
//   delay[n+1] = min(cap, uniform(base, delay[n] * growth))
//
// which keeps the expected delay growing exponentially while each worker's
// actual sleep is drawn independently. The sequence is driven by the repo's
// deterministic Xoshiro256, so a seeded run replays the same delays.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace hs {

/// When an operation may be re-attempted. Transient device errors (kInternal)
/// and allocation pressure (kOutOfMemory) are retriable; a lost device
/// (kUnavailable) never recovers by retrying on the same device, and genuine
/// programming errors (kInvalidArgument, ...) must surface immediately.
[[nodiscard]] inline bool default_retriable(ErrorCode code) {
  return code == ErrorCode::kInternal || code == ErrorCode::kOutOfMemory;
}

struct RetryPolicy {
  /// Total attempts, including the first (1 = no retry).
  int max_attempts = 4;
  /// Jitter bounds (BackoffSequence): every retry waits at least
  /// base_delay and at most max_delay.
  std::chrono::microseconds base_delay{50};
  std::chrono::microseconds max_delay{5000};
  bool (*retriable)(ErrorCode) = &default_retriable;
};

/// One decorrelated-jitter delay sequence over a policy's
/// [base_delay, max_delay]. Not thread-safe; each worker (farm replica)
/// owns one, seeded uniquely, and restarts it when a fresh operation starts
/// so the first retry of every op waits near base_delay.
class BackoffSequence {
 public:
  explicit BackoffSequence(const RetryPolicy& policy = {},
                           std::uint64_t seed = 1)
      : policy_(sanitize(policy)), rng_(seed), prev_(policy_.base_delay) {}

  /// Next delay: uniform in [base, min(cap, prev * growth)], remembered as
  /// the new `prev`. The envelope is clamped in the double domain before
  /// the cast to integer microseconds, so every value is within
  /// [base, cap] however long the sequence runs.
  [[nodiscard]] std::chrono::microseconds next() {
    const auto base_us = static_cast<double>(policy_.base_delay.count());
    const auto cap_us = static_cast<double>(policy_.max_delay.count());
    double hi = static_cast<double>(prev_.count()) * kGrowth;
    hi = std::clamp(hi, base_us, cap_us);
    const double us = base_us + (hi - base_us) * rng_.uniform();
    prev_ = std::chrono::microseconds(static_cast<std::int64_t>(us));
    return prev_;
  }

  /// Restart the sequence for a new operation (the RNG stream continues, so
  /// two ops on the same worker still draw different delays).
  void reset() { prev_ = policy_.base_delay; }

  /// retry_status delay hook: restarts the sequence on an operation's
  /// first retry, then sleeps the next draw.
  void wait(int retry_index) {
    if (retry_index == 0) reset();
    std::this_thread::sleep_for(next());
  }

  /// The policy with its bounds sanitized (base >= 0, cap >= base).
  [[nodiscard]] const RetryPolicy& policy() const { return policy_; }

 private:
  /// Upper bound on the ratio between consecutive draws; 3.0 is the
  /// decorrelated-jitter standard (expected growth ~2x per retry).
  static constexpr double kGrowth = 3.0;

  static RetryPolicy sanitize(RetryPolicy p) {
    if (p.base_delay.count() < 0) p.base_delay = std::chrono::microseconds(0);
    if (p.max_delay < p.base_delay) p.max_delay = p.base_delay;
    return p;
  }

  RetryPolicy policy_;
  Xoshiro256 rng_;
  std::chrono::microseconds prev_;
};

/// One recorded give-up or retry, for post-run inspection in tests/benches.
struct RetryEvent {
  std::string op;       ///< operation label, e.g. "mandel.h2d"
  int attempt = 0;      ///< 1-based attempt number that failed
  ErrorCode code = ErrorCode::kOk;
  bool gave_up = false; ///< true if this failure exhausted the policy
};

/// Thread-safe telemetry shared by all replicas of a fault-tolerant stage.
/// Counters are relaxed atomics; the event log is bounded and mutex-guarded
/// (it is only written on failures, which are off the fast path by
/// definition).
class RetryStats {
 public:
  std::atomic<std::uint64_t> attempts{0};        ///< operation attempts
  std::atomic<std::uint64_t> retries{0};         ///< re-attempts after failure
  std::atomic<std::uint64_t> exhausted{0};       ///< gave up after max_attempts
  std::atomic<std::uint64_t> cpu_fallbacks{0};   ///< items computed on the CPU path
  std::atomic<std::uint64_t> device_losses{0};   ///< sticky device losses observed
  std::atomic<std::uint64_t> device_switches{0}; ///< migrations to a surviving device

  void record_failure(std::string op, int attempt, ErrorCode code,
                      bool gave_up) {
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() < kMaxEvents) {
      events_.push_back(RetryEvent{std::move(op), attempt, code, gave_up});
    }
  }

  [[nodiscard]] std::vector<RetryEvent> events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

  [[nodiscard]] std::uint64_t recoveries() const {
    return retries.load() + cpu_fallbacks.load() + device_switches.load();
  }

  [[nodiscard]] std::string ToString() const;

 private:
  static constexpr std::size_t kMaxEvents = 1024;
  mutable std::mutex mu_;
  std::vector<RetryEvent> events_;
};

inline std::string RetryStats::ToString() const {
  std::string out = "attempts=" + std::to_string(attempts.load()) +
                    " retries=" + std::to_string(retries.load()) +
                    " exhausted=" + std::to_string(exhausted.load()) +
                    " cpu_fallbacks=" + std::to_string(cpu_fallbacks.load()) +
                    " device_losses=" + std::to_string(device_losses.load()) +
                    " device_switches=" + std::to_string(device_switches.load());
  return out;
}

/// Run `op` (a callable returning Status) up to policy.max_attempts times,
/// waiting `delay(retry_index)` between attempts (retry_index is 0-based:
/// 0 before the first retry). Non-retriable codes surface immediately.
/// `stats` may be null. The delay callable owns the wait entirely — pass a
/// BackoffSequence's wait(), or a no-op for tests that must not sleep.
template <typename F, typename DelayFn>
Status retry_status(const RetryPolicy& policy, RetryStats* stats,
                    std::string_view label, F&& op, DelayFn&& delay) {
  Status last;
  const int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (stats != nullptr) stats->attempts.fetch_add(1, std::memory_order_relaxed);
    last = op();
    if (last.ok()) return last;
    const bool can_retry =
        attempt < max_attempts && policy.retriable != nullptr &&
        policy.retriable(last.code());
    if (stats != nullptr) {
      stats->record_failure(std::string(label), attempt, last.code(),
                            /*gave_up=*/!can_retry);
      if (can_retry) {
        stats->retries.fetch_add(1, std::memory_order_relaxed);
      } else {
        stats->exhausted.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!can_retry) return last;
    delay(attempt - 1);
  }
  return last;
}

}  // namespace hs
