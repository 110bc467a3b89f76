// Self-test of the benchmark's own helpers: the ceil-rank percentile rule,
// the open-loop client's due-time scheduling and lateness accounting, the
// client-clock readiness stamps latency is measured to, and the scaling of
// on-CPU times by the calibration passes around them.
// Runs in well under a second; exits non-zero when any check fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <vector>

#include "src/calibrate.h"
#include "src/openloop.h"
#include "src/stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

// A simulated clock: time only moves when the client waits for a due time
// or when the sender spends `send_cost_ns` sending.
struct SimPacer {
  int64_t now = 0;
  int64_t send_cost_ns = 0;
  size_t polls = 0;
  int64_t NowNs() const { return now; }
  template <typename Poll>
  void WaitUntilNs(int64_t due, Poll&& poll) {
    poll();
    ++polls;
    now = std::max(now, due);
  }
};

void TestPercentile() {
  const std::vector<double> ten = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
  Expect(Percentile(ten, 50) == 5, "p50 of 1..10 is rank 5");
  Expect(Percentile(ten, 90) == 9, "p90 of 1..10 is rank 9");
  Expect(Percentile(ten, 91) == 10, "p91 of 1..10 rounds up to rank 10");
  Expect(Percentile(ten, 99) == 10, "p99 of 1..10 is the maximum");
  Expect(Percentile(ten, 0) == 1, "p0 clamps to rank 1");
  Expect(Percentile(ten, 100) == 10, "p100 is the maximum");
  Expect(Percentile({42}, 50) == 42, "single sample");
  Expect(Percentile({}, 50) == 0, "empty sample reads 0");
  Expect(Median({1, 2, 3, 4}) == 2, "median of an even sample is rank n/2");
}

struct Sent {
  size_t index;
  int64_t due;
  int64_t send;
};

std::vector<Sent> Drive(SimPacer& pacer, double rate, uint64_t seed,
                        int64_t horizon_ns, OpenLoopResult* result) {
  std::vector<Sent> sent;
  ArrivalSchedule schedule(rate, seed);
  *result = RunOpenLoop(
      pacer, schedule, [&](int64_t due) { return due >= horizon_ns; },
      [] { return false; },
      [&](size_t i, int64_t due, int64_t now) {
        sent.push_back({i, due, now});
        pacer.now += pacer.send_cost_ns;
      });
  return sent;
}

void TestPunctualSender() {
  SimPacer pacer;
  OpenLoopResult result;
  const std::vector<Sent> sent = Drive(pacer, 10000.0, 7, 1'000'000'000, &result);
  Expect(result.sent == sent.size(), "sent count matches the sends");
  Expect(result.lag_us.size() == sent.size(), "one lag per request");
  bool punctual = true, ordered = true, indexed = true;
  for (size_t i = 0; i < sent.size(); ++i) {
    punctual &= sent[i].send == sent[i].due && result.lag_us[i] == 0.0;
    ordered &= i == 0 || sent[i].due > sent[i - 1].due;
    indexed &= sent[i].index == i;
  }
  Expect(punctual, "a free sender sends exactly at each due time");
  Expect(ordered, "due times strictly increase");
  Expect(indexed, "requests are numbered in send order");
  Expect(pacer.polls == sent.size(), "the client polls before every send");
  Expect(std::fabs(static_cast<double>(sent.size()) - 10000.0) < 400.0,
         "10k/s for 1 s schedules about 10k requests");
  Expect(sent.back().due < 1'000'000'000, "nothing is due past the horizon");
}

void TestSlowSenderAccumulatesLag() {
  // Each send costs twice the mean gap: the client falls behind, sends
  // every request anyway (no drops) and never early, and the recorded lag
  // is exactly send time minus due time.
  SimPacer pacer;
  pacer.send_cost_ns = 200'000;
  OpenLoopResult result;
  const std::vector<Sent> sent = Drive(pacer, 10000.0, 7, 100'000'000, &result);
  SimPacer free_pacer;
  OpenLoopResult free_result;
  const std::vector<Sent> due = Drive(free_pacer, 10000.0, 7, 100'000'000,
                                      &free_result);
  Expect(sent.size() == due.size(), "a slow sender drops no request");
  bool never_early = true, exact = true, recurrence = true;
  int64_t previous_done = 0;
  for (size_t i = 0; i < sent.size(); ++i) {
    never_early &= sent[i].send >= sent[i].due;
    exact &= result.lag_us[i] ==
             static_cast<double>(sent[i].send - sent[i].due) / 1e3;
    recurrence &= sent[i].due == due[i].due &&
                  sent[i].send == std::max(sent[i].due, previous_done);
    previous_done = sent[i].send + pacer.send_cost_ns;
  }
  Expect(never_early, "no request is sent before it is due");
  Expect(exact, "lag is send time minus due time");
  Expect(recurrence, "the schedule does not slip: send = max(due, free)");
  Expect(result.lag_us.back() > result.lag_us.front() + 1000.0,
         "lag grows while the sender is slower than the rate");
}

void TestScheduleIsSeeded() {
  ArrivalSchedule a(20000.0, 3), b(20000.0, 3), c(20000.0, 4);
  bool same = true, differs = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = a.Next();
    same &= x == b.Next();
    differs |= x != c.Next();
  }
  Expect(same, "the same seed gives the same due times");
  Expect(differs, "another seed gives other due times");
}

void TestRealPacerNeverEarly() {
  SteadyPacer pacer;
  ArrivalSchedule schedule(2000.0, 1);
  const int64_t start = pacer.NowNs();
  size_t polls = 0;
  const OpenLoopResult result = RunOpenLoop(
      pacer, schedule, [&](int64_t due) { return due >= 50'000'000; },
      [&] {
        ++polls;
        return true;
      },
      [](size_t, int64_t, int64_t) {});
  bool non_negative = true;
  for (double lag : result.lag_us) non_negative &= lag >= 0.0;
  Expect(non_negative, "the steady pacer never sends early");
  Expect(result.sent > 0 && pacer.NowNs() - start >= 0, "steady pacer ran");
  Expect(polls >= result.sent, "the steady pacer polls while it waits");
}

void TestReadyWatchStampsOnTheClientClock() {
  // Answers resolve out of order; each is stamped with the clock reading
  // of the first poll that sees it ready, and keeps that stamp.
  SimPacer pacer;
  ReadyWatch<int> watch;
  std::vector<std::promise<int>> promises(3);
  for (size_t i = 0; i < promises.size(); ++i) {
    watch.Add(promises[i].get_future(), 10 * static_cast<int64_t>(i),
              10 * static_cast<int64_t>(i) + 1, i);
  }
  pacer.now = 100;
  Expect(watch.Poll(pacer), "nothing ready: all outstanding");
  promises[1].set_value(1);
  pacer.now = 200;
  Expect(watch.Poll(pacer), "one of three ready: still outstanding");
  promises[0].set_value(0);
  promises[2].set_value(2);
  pacer.now = 350;
  Expect(!watch.Poll(pacer), "all ready: nothing outstanding");
  pacer.now = 400;
  watch.Drain(pacer);
  const auto& e = watch.entries();
  Expect(e[0].ready_ns == 350 && e[1].ready_ns == 200 && e[2].ready_ns == 350,
         "each answer is stamped at the first poll that sees it ready");
  Expect(e[2].due_ns == 20 && e[2].send_ns == 21 && e[2].request == 2,
         "due and send times are kept per request");
}

void TestCalibration() {
  Expect(Calibrator::Factor(kCalibrationSeconds, kCalibrationSeconds) == 1.0,
         "passes at the reference speed scale by 1");
  Expect(std::fabs(Calibrator::Factor(0.02, 0.03) - 0.4) < 1e-12,
         "the factor is the reference pass over the mean of the two passes");
  Calibrator calibrator;
  double fake_clock = 5.0;
  double scaled = 0.0;
  const double seconds = CalibratedCpuSeconds(
      calibrator, [&] { return fake_clock; }, [&] { fake_clock += 2.0; },
      &scaled);
  Expect(seconds == 2.0, "the work is timed with the given clock");
  const std::vector<double>& passes = calibrator.pass_seconds();
  Expect(passes.size() == 2 && passes[0] > 0.0 && passes[1] > 0.0,
         "one calibration pass before the work and one after");
  Expect(passes.size() == 2 &&
             std::fabs(scaled - 2.0 * Calibrator::Factor(passes[0],
                                                         passes[1])) < 1e-12,
         "the work is scaled by the passes around it");
  ParallelCalibrator parallel(3);
  Expect(parallel.Pass() > 0.0 && parallel.pass_seconds().size() == 1 &&
             parallel.Bytes() == 3 * calibrator.Bytes(),
         "a parallel pass runs one calibrator per thread");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentile();
  perfbench::TestPunctualSender();
  perfbench::TestSlowSenderAccumulatesLag();
  perfbench::TestScheduleIsSeeded();
  perfbench::TestRealPacerNeverEarly();
  perfbench::TestReadyWatchStampsOnTheClientClock();
  perfbench::TestCalibration();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d self-test failure(s)\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench self-test: ok\n");
  return 0;
}
