// Helpers shared by the workload files.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>

#include "exec/executor.h"
#include "trace.h"

namespace perfbench {

/// Wraps the compute pool and times what passes through it: region wall
/// time and the busy time of every chunk, for exec.parallel_efficiency.
class TimingExecutor final : public mps::exec::Executor {
 public:
  explicit TimingExecutor(mps::exec::Executor& inner) : inner_(inner) {}

  std::size_t threads() const override { return inner_.threads(); }

  void run_chunks(std::size_t count,
                  const std::function<void(std::size_t)>& fn) override {
    auto start = Clock::now();
    inner_.run_chunks(count, [&](std::size_t c) {
      auto t = Clock::now();
      fn(c);
      busy_ns_.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t)
              .count(),
          std::memory_order_relaxed);
    });
    region_s_ += seconds_since(start);
  }

  double region_s() const { return region_s_; }
  double busy_s() const {
    return static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }
  /// Chunk busy time / (region wall x threads).
  double efficiency() const {
    double denom = region_s_ * static_cast<double>(threads());
    return denom > 0.0 ? busy_s() / denom : 0.0;
  }

 private:
  mps::exec::Executor& inner_;
  double region_s_ = 0.0;
  std::atomic<std::int64_t> busy_ns_{0};
};

/// Repeats `round` until `seconds` of wall time have passed, and at
/// least twice: round 0 warms the allocator and caches and is not
/// reported (a long-running server does not pay that cost per request).
/// `round` receives the round index. Returns the number of rounds run.
inline int repeat_rounds(double seconds, const std::function<void(int)>& round) {
  auto start = Clock::now();
  int rounds = 0;
  do {
    round(rounds);
    ++rounds;
  } while (rounds < 2 || seconds_since(start) < seconds);
  return rounds;
}

}  // namespace perfbench
