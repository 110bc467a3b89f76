// Deadline-aware serving (core/server.h): shedding, admission control,
// graceful degradation and fault injection. Pins the robustness
// contracts on top of the micro-batching tier:
//   * a deadline that expires while the request is queued sheds at
//     dequeue — the future resolves with kDeadlineExceeded, no work done;
//   * a tight deadline caps its micro-batch's coalescing linger, so the
//     request is answered within budget instead of lingering past it;
//   * cost-based rejection: once queue-wait/exec EWMAs predict a miss,
//     Submit rejects immediately (kDeadlineExceeded) without queueing;
//   * graceful degradation: sustained overload steps the sweep count
//     down to the floor (answers flagged degraded), recovery steps it
//     back up — with hysteresis between the two thresholds;
//   * a worker catching an exception from Execute fails that batch's
//     futures with kInternal and keeps serving (the "server.execute"
//     failpoint drives this deterministically);
//   * accounting: every admitted request resolves with a definite
//     status, and the counters reconcile exactly at quiescence.
// The failpoint-driven tests skip (GTEST_SKIP) in builds without
// GENCLUS_FAILPOINTS; the rest run in every lane, including TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/failpoint.h"
#include "core/engine.h"
#include "core/server.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using testing::MakeTwoCommunityNetwork;

// Shared trained state: fitting once per suite keeps the file fast.
class ServerDeadlineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new testing::TwoCommunityNetwork(
        MakeTwoCommunityNetwork(8, 1.0, 601));
    FitOptions options;
    options.attributes = {"text"};
    options.config = testing::PlantedFixtureConfig(602);
    auto fit = Engine::Fit(fixture_->dataset, options);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    model_ = new Model(std::move(fit).value().model);
  }

  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete fixture_;
    fixture_ = nullptr;
  }

  void TearDown() override { Failpoints::DisarmAll(); }

  static std::unique_ptr<Server> MakeServer(ServerOptions options) {
    auto server = Server::Create(&fixture_->dataset.network, *model_, options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(server).value();
  }

  static NewObjectQuery MakeQuery(size_t i = 0) {
    NewObjectQuery q;
    q.links.push_back({fixture_->docs[i % fixture_->docs.size()],
                       fixture_->doc_doc, 1.0});
    q.observations.push_back(NewObjectObservation::Categorical(
        0, static_cast<uint32_t>(i % 4)));
    return q;
  }

  static testing::TwoCommunityNetwork* fixture_;
  static Model* model_;
};

testing::TwoCommunityNetwork* ServerDeadlineTest::fixture_ = nullptr;
Model* ServerDeadlineTest::model_ = nullptr;

TEST_F(ServerDeadlineTest, ValidateRejectsBadRobustnessOptions) {
  ServerOptions options;
  options.min_inference_iterations = ServeDefaults::kInferenceIterations + 1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options = ServerOptions{};
  options.default_timeout_us = -1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options = ServerOptions{};
  options.degrade_queue_wait_us = 1000;
  options.recover_queue_wait_us = 1000;  // no hysteresis gap
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.recover_queue_wait_us = 250;
  EXPECT_TRUE(options.Validate().ok());
}

TEST_F(ServerDeadlineTest, AlreadyExpiredDeadlineIsRejectedAtSubmit) {
  auto server = MakeServer({});
  const Deadline expired =
      Deadline::At(Deadline::Clock::now() - milliseconds(1));
  auto submitted = server->Submit(MakeQuery(), expired);
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kDeadlineExceeded);
  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.deadline_rejected, 1u);
  EXPECT_EQ(stats.accepted, 0u);
}

TEST_F(ServerDeadlineTest, InfiniteAndGenerousDeadlinesServeNormally) {
  ServerOptions options;
  options.default_timeout_us = 5'000'000;  // generous default
  auto server = MakeServer(options);
  auto no_deadline = server->Submit(MakeQuery(0));
  ASSERT_TRUE(no_deadline.ok());
  auto explicit_deadline =
      server->Submit(MakeQuery(1), Deadline::AfterMicros(5'000'000));
  ASSERT_TRUE(explicit_deadline.ok());
  QueryResult a = no_deadline->get();
  QueryResult b = explicit_deadline->get();
  EXPECT_TRUE(a.ok()) << a.status.ToString();
  EXPECT_TRUE(b.ok()) << b.status.ToString();
  EXPECT_FALSE(a.degraded);
  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.deadline_shed, 0u);
  EXPECT_EQ(stats.deadline_rejected, 0u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST_F(ServerDeadlineTest, ExpiredInQueueIsShedAtDequeue) {
  // One worker wedged on a deliberately expensive query: a request
  // admitted behind it whose deadline passes while the wedge still runs
  // must be shed at dequeue — future resolves with kDeadlineExceeded,
  // nothing executed. Its budget is a quarter of the wedge's service
  // time (the fastest of three measured), so admission accepts it on any
  // host; the test waits the budget out and checks the wedge is still
  // running, which orders the expiry before the dequeue. An attempt in
  // which the wedge finished first proves nothing and is repeated.
  ServerOptions options;
  options.num_workers = 1;
  options.max_batch = 1;  // the wedge must not coalesce its victim
  options.max_wait_us = 0;
  options.cost_based_rejection = false;  // force it PAST admission

  NewObjectQuery slow = MakeQuery();
  for (int i = 0; i < 200000; ++i) {
    slow.observations.push_back(NewObjectObservation::Categorical(
        0, static_cast<uint32_t>(i % 4)));
  }
  auto service = std::chrono::steady_clock::duration::max();
  for (int run = 0; run < 3; ++run) {
    auto server = MakeServer(options);
    const auto start = std::chrono::steady_clock::now();
    auto wedge = server->Submit(slow);
    ASSERT_TRUE(wedge.ok());
    ASSERT_TRUE(wedge->get().ok());
    service = std::min(service, std::chrono::steady_clock::now() - start);
  }
  const int64_t budget_us =
      std::chrono::duration_cast<microseconds>(service / 4).count();

  for (int attempt = 0; attempt < 5; ++attempt) {
    auto server = MakeServer(options);
    auto wedge = server->Submit(slow);
    ASSERT_TRUE(wedge.ok());
    const Deadline deadline = Deadline::AfterMicros(budget_us);
    auto doomed = server->Submit(MakeQuery(), deadline);
    ASSERT_TRUE(doomed.ok()) << doomed.status().ToString();
    std::this_thread::sleep_until(deadline.when());
    const bool wedged = wedge->wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready;
    const QueryResult result = doomed->get();
    EXPECT_TRUE(wedge->get().ok());
    if (!wedged) continue;

    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(result.membership.empty());
    EXPECT_GT(result.queue_seconds, 0.0);
    const ServerStats stats = server->Stats();
    EXPECT_EQ(stats.deadline_shed, 1u);
    EXPECT_EQ(stats.accepted, 2u);
    EXPECT_EQ(stats.completed, 1u);
    // The invariant the bench gates at scale: every admitted request
    // resolved one way.
    EXPECT_EQ(stats.accepted,
              stats.completed + stats.cancelled + stats.deadline_shed);
    return;
  }
  FAIL() << "the wedge never outlasted a quarter of its service time ("
         << budget_us << "us)";
}

TEST_F(ServerDeadlineTest, TightDeadlineCapsTheBatchLinger) {
  // A half-second linger would shed a 60ms-deadline request if the
  // worker waited it out. The deadline must cap the linger instead, with
  // slack for a late wake-up: the request executes early and completes
  // within budget, never shed.
  ServerOptions options;
  options.num_workers = 1;
  options.max_batch = 64;
  options.max_wait_us = 500'000;  // pathological linger
  auto server = MakeServer(options);

  const auto start = std::chrono::steady_clock::now();
  auto submitted = server->Submit(MakeQuery(), Deadline::AfterMicros(60'000));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  const QueryResult result = submitted->get();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_LT(elapsed, milliseconds(400));  // nowhere near the full linger
  EXPECT_EQ(server->Stats().deadline_shed, 0u);
}

TEST_F(ServerDeadlineTest, SubmitBatchAppliesOneDeadlineToEverySlot) {
  auto server = MakeServer({});
  std::vector<NewObjectQuery> queries;
  for (size_t i = 0; i < 4; ++i) queries.push_back(MakeQuery(i));
  // Expired batch deadline: every slot fails at admission, the batch
  // future still resolves.
  const Deadline expired =
      Deadline::At(Deadline::Clock::now() - milliseconds(1));
  InferenceResult rejected =
      server->SubmitBatch(queries, expired).get();
  ASSERT_EQ(rejected.size(), queries.size());
  for (size_t i = 0; i < rejected.size(); ++i) {
    EXPECT_EQ(rejected.statuses[i].code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(server->Stats().deadline_rejected, queries.size());
  // Generous batch deadline: all served.
  InferenceResult served =
      server->SubmitBatch(queries, Deadline::AfterMicros(5'000'000)).get();
  ASSERT_EQ(served.size(), queries.size());
  for (size_t i = 0; i < served.size(); ++i) {
    EXPECT_TRUE(served.statuses[i].ok()) << served.statuses[i].ToString();
  }
}

TEST_F(ServerDeadlineTest, CostBasedRejectionKicksInUnderWedgedWorker) {
  if (!Failpoints::kEnabled) {
    GTEST_SKIP() << "needs a GENCLUS_FAILPOINTS build";
  }
  // Every micro-batch stalls 50ms at the "server.worker_batch" site, so
  // queue waits (which include the stall) feed a ~50ms EWMA. After the
  // pipeline has drained once, a 1ms-budget request must be rejected at
  // Submit — before ever occupying a queue slot.
  ServerOptions options;
  options.num_workers = 1;
  options.max_batch = 1;
  options.max_wait_us = 0;
  auto server = MakeServer(options);
  Failpoints::Arm("server.worker_batch", {.delay_us = 50'000, .fail = false});

  std::vector<std::future<QueryResult>> warmup;
  for (size_t i = 0; i < 3; ++i) {
    auto submitted = server->Submit(MakeQuery(i));  // no deadline
    ASSERT_TRUE(submitted.ok());
    warmup.push_back(std::move(submitted).value());
  }
  for (std::future<QueryResult>& f : warmup) EXPECT_TRUE(f.get().ok());
  ASSERT_GE(server->Stats().predicted_queue_wait_us, 10'000.0);

  auto hopeless = server->Submit(MakeQuery(), Deadline::AfterMicros(1000));
  ASSERT_FALSE(hopeless.ok());
  EXPECT_EQ(hopeless.status().code(), StatusCode::kDeadlineExceeded);
  Failpoints::Disarm("server.worker_batch");

  const ServerStats stats = server->Stats();
  EXPECT_GE(stats.deadline_rejected, 1u);
  // A budget comfortably above the prediction is still admitted.
  auto feasible =
      server->Submit(MakeQuery(), Deadline::AfterMicros(10'000'000));
  ASSERT_TRUE(feasible.ok()) << feasible.status().ToString();
  EXPECT_TRUE(feasible->get().ok());
}

TEST_F(ServerDeadlineTest, DegradedModeEntersAtFloorAndRecovers) {
  if (!Failpoints::kEnabled) {
    GTEST_SKIP() << "needs a GENCLUS_FAILPOINTS build";
  }
  // Entry: with every batch stalled 20ms, the queue-wait EWMA jumps far
  // above degrade_queue_wait_us and each batch steps the sweep count
  // down until the floor. Recovery: disarm the stall and keep serving —
  // the EWMA decays below recover_queue_wait_us and the count steps back
  // up to normal. Degraded answers must be flagged, recovered ones not.
  ServerOptions options;
  options.num_workers = 1;
  options.max_batch = 1;
  options.max_wait_us = 0;
  options.cost_based_rejection = false;
  options.degrade_queue_wait_us = 5000;
  options.recover_queue_wait_us = 1000;
  options.min_inference_iterations = 2;
  auto server = MakeServer(options);
  const size_t normal = ServeDefaults::kInferenceIterations;

  Failpoints::Arm("server.worker_batch", {.delay_us = 20'000, .fail = false});
  bool saw_degraded_answer = false;
  // One batch per submission (sequential): each folds a ~20ms queue wait
  // into the EWMA and steps iterations down by one until the floor.
  for (size_t i = 0; i < normal + 4; ++i) {
    auto submitted = server->Submit(MakeQuery(i));
    ASSERT_TRUE(submitted.ok());
    const QueryResult result = submitted->get();
    ASSERT_TRUE(result.ok()) << result.status.ToString();
    saw_degraded_answer |= result.degraded;
  }
  ServerStats stats = server->Stats();
  EXPECT_EQ(stats.current_inference_iterations,
            options.min_inference_iterations);
  EXPECT_TRUE(saw_degraded_answer);
  EXPECT_GE(stats.degraded, 1u);
  Failpoints::Disarm("server.worker_batch");

  // Recovery: fast batches decay the EWMA below the exit threshold, then
  // each batch steps one sweep back. Give the decay + ramp enough
  // sequential batches; the hysteresis band means no flapping on the way.
  QueryResult last;
  for (size_t i = 0; i < 80; ++i) {
    auto submitted = server->Submit(MakeQuery(i));
    ASSERT_TRUE(submitted.ok());
    last = submitted->get();
    ASSERT_TRUE(last.ok()) << last.status.ToString();
    if (server->Stats().current_inference_iterations == normal) break;
  }
  stats = server->Stats();
  EXPECT_EQ(stats.current_inference_iterations, normal);

  // Fully recovered: a fresh answer is not degraded and matches the
  // full-sweep reference bitwise (zero drift on non-degraded answers).
  auto recovered = server->Submit(MakeQuery(3));
  ASSERT_TRUE(recovered.ok());
  const QueryResult answer = recovered->get();
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer.degraded);
  const NewObjectQuery reference_query = MakeQuery(3);
  auto reference =
      InferMembership(fixture_->dataset.network, *model_,
                      reference_query.links, reference_query.observations);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(answer.membership.size(), reference.value().size());
  for (size_t k = 0; k < answer.membership.size(); ++k) {
    EXPECT_EQ(answer.membership[k], reference.value()[k]) << "k=" << k;
  }
}

TEST_F(ServerDeadlineTest, ExecuteExceptionFailsBatchAndWorkerSurvives) {
  if (!Failpoints::kEnabled) {
    GTEST_SKIP() << "needs a GENCLUS_FAILPOINTS build";
  }
  // "server.execute" throws inside the worker's try block. The batch's
  // futures must resolve with kInternal — counted as completed, nothing
  // hangs — and the same worker must serve the next request normally.
  ServerOptions options;
  options.num_workers = 1;
  auto server = MakeServer(options);
  Failpoints::Arm("server.execute", {.max_fires = 1});

  auto poisoned = server->Submit(MakeQuery());
  ASSERT_TRUE(poisoned.ok());
  const QueryResult failed = poisoned->get();
  EXPECT_EQ(failed.status.code(), StatusCode::kInternal);
  EXPECT_TRUE(failed.membership.empty());

  auto healthy = server->Submit(MakeQuery());
  ASSERT_TRUE(healthy.ok());
  EXPECT_TRUE(healthy->get().ok());

  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);  // kInternal still resolves/accounts
  EXPECT_EQ(stats.accepted,
            stats.completed + stats.cancelled + stats.deadline_shed);
}

TEST_F(ServerDeadlineTest, MixedDeadlineTrafficReconcilesExactly) {
  // Concurrent producers with a mix of absent, generous and hopeless
  // deadlines: at quiescence every submission is accounted for exactly
  // once across accepted/rejected/deadline_rejected, and every admitted
  // request across completed/cancelled/deadline_shed.
  ServerOptions options;
  options.num_workers = 2;
  options.max_batch = 8;
  options.queue_capacity = 64;
  auto server = MakeServer(options);

  constexpr size_t kProducers = 3;
  constexpr size_t kPerProducer = 40;
  std::atomic<size_t> submissions{0};
  std::atomic<size_t> admitted{0};
  std::atomic<size_t> rejected_seen{0};
  std::vector<std::vector<std::future<QueryResult>>> futures(kProducers);
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = 0; i < kPerProducer; ++i) {
        Deadline deadline;  // infinite
        if (i % 3 == 1) deadline = Deadline::AfterMicros(2'000'000);
        if (i % 3 == 2) deadline = Deadline::AfterMicros(50 + 20 * (i % 7));
        submissions.fetch_add(1);
        auto submitted = server->Submit(MakeQuery(p + i), deadline);
        if (submitted.ok()) {
          admitted.fetch_add(1);
          futures[p].push_back(std::move(submitted).value());
        } else {
          rejected_seen.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  size_t completed_ok = 0;
  size_t shed = 0;
  for (std::vector<std::future<QueryResult>>& produced : futures) {
    for (std::future<QueryResult>& future : produced) {
      const QueryResult result = future.get();  // every future resolves
      if (result.ok()) {
        ++completed_ok;
      } else {
        ASSERT_EQ(result.status.code(), StatusCode::kDeadlineExceeded)
            << result.status.ToString();
        ++shed;
      }
    }
  }
  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.accepted, admitted.load());
  EXPECT_EQ(stats.rejected + stats.deadline_rejected, rejected_seen.load());
  EXPECT_EQ(submissions.load(),
            stats.accepted + stats.rejected + stats.deadline_rejected);
  EXPECT_EQ(stats.completed, completed_ok);
  EXPECT_EQ(stats.deadline_shed, shed);
  EXPECT_EQ(stats.accepted,
            stats.completed + stats.cancelled + stats.deadline_shed);
}

}  // namespace
}  // namespace genclus
