// Open-loop request client: requests are due on a Poisson schedule fixed
// in advance by the seed, and each is sent at its due time whether or not
// earlier ones have been answered. A stalled sender therefore sends late
// instead of sending less, and the lateness is recorded per request, so
// latency can be measured from the due time (which charges a stall to
// every request queued behind it) and the client's own lag is visible.
// While it waits for the next due time the client polls its outstanding
// futures and stamps each with its own clock the moment it reads ready, so
// latency ends where the client could use the answer.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <random>
#include <thread>
#include <vector>

namespace perfbench {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();  // yields the core's shared units to a sibling
#endif
}

/// Due times of a Poisson arrival process, in nanoseconds from the start
/// of the phase. Deterministic given (rate, seed).
class ArrivalSchedule {
 public:
  ArrivalSchedule(double rate_per_s, uint64_t seed)
      : engine_(seed), gap_(rate_per_s / 1e9) {}

  int64_t Next() {
    due_ns_ += gap_(engine_);
    return static_cast<int64_t>(due_ns_);
  }

 private:
  std::mt19937_64 engine_;
  std::exponential_distribution<double> gap_;
  double due_ns_ = 0.0;
};

/// The wall clock of a real run: nanoseconds since construction.
class SteadyPacer {
 public:
  SteadyPacer() : start_(std::chrono::steady_clock::now()) {}

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  /// Spins until `due_ns`, calling poll() on every turn; poll() returns
  /// true while answers are outstanding. Only when none is and the due
  /// time is far off does it sleep first, so widely spaced requests do not
  /// hold a core and no answer waits on a sleeping client.
  template <typename Poll>
  void WaitUntilNs(int64_t due_ns, Poll&& poll) const {
    constexpr int64_t kSpinNs = 150'000;
    for (;;) {
      const bool outstanding = poll();
      const int64_t ahead = due_ns - NowNs();
      if (ahead <= 0) return;
      if (!outstanding && ahead > kSpinNs) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - kSpinNs));
      }
      CpuRelax();
    }
  }

  std::chrono::steady_clock::time_point start() const { return start_; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Per-request lateness of one open-loop phase.
struct OpenLoopResult {
  size_t sent = 0;
  /// Send time minus due time of every request, in microseconds (>= 0).
  std::vector<double> lag_us;
};

/// Sends requests due on `schedule` until `stop(due_ns)` returns true for
/// the next due time. For each request it waits until the due time (never
/// sends early), polling through pacer.WaitUntilNs(due, poll), then calls
/// send(index, due_ns, send_ns) with the clock reading taken just before
/// the send. A request whose due time has already passed is sent at once:
/// the schedule never slips, so lag accumulates while the sender is slow.
/// `Pacer` provides NowNs() and WaitUntilNs(); tests substitute a
/// simulated clock.
template <typename Pacer, typename Stop, typename Poll, typename Send>
OpenLoopResult RunOpenLoop(Pacer& pacer, ArrivalSchedule& schedule,
                           Stop&& stop, Poll&& poll, Send&& send) {
  OpenLoopResult result;
  for (int64_t due = schedule.Next(); !stop(due); due = schedule.Next()) {
    pacer.WaitUntilNs(due, poll);
    const int64_t now = pacer.NowNs();
    result.lag_us.push_back(static_cast<double>(now - due) / 1e3);
    send(result.sent, due, now);
    ++result.sent;
  }
  return result;
}

/// The futures of one open-loop phase, each stamped on the client's clock
/// when it is first seen ready.
template <typename T>
class ReadyWatch {
 public:
  struct Entry {
    std::future<T> future;
    int64_t due_ns = 0;
    int64_t send_ns = 0;
    int64_t ready_ns = -1;  // -1 until seen ready
    size_t request = 0;
  };

  void Reserve(size_t n) { entries_.reserve(n); }

  void Add(std::future<T> future, int64_t due_ns, int64_t send_ns,
           size_t request) {
    entries_.push_back({std::move(future), due_ns, send_ns, -1, request});
  }

  /// Checks every entry not yet seen ready (one atomic status read each)
  /// and stamps those now ready with pacer.NowNs(). Returns true while
  /// some entry is still outstanding.
  template <typename Pacer>
  bool Poll(const Pacer& pacer) {
    for (size_t i = first_open_; i < entries_.size(); ++i) {
      Entry& e = entries_[i];
      if (e.ready_ns < 0 && e.future.wait_for(std::chrono::seconds(0)) ==
                                std::future_status::ready) {
        e.ready_ns = pacer.NowNs();
      }
    }
    while (first_open_ < entries_.size() &&
           entries_[first_open_].ready_ns >= 0) {
      ++first_open_;
    }
    return first_open_ < entries_.size();
  }

  /// Spins until every entry has been seen ready.
  template <typename Pacer>
  void Drain(const Pacer& pacer) {
    while (Poll(pacer)) CpuRelax();
  }

  std::vector<Entry>& entries() { return entries_; }

 private:
  std::vector<Entry> entries_;
  size_t first_open_ = 0;  // entries before it have all been seen ready
};

}  // namespace perfbench
