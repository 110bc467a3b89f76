// Zero-downtime model hot-swap (Server::SwapModel):
//   * answers track the swap: queries before it are answered (and
//     stamped) by the old model, queries after it by the new one, each
//     bitwise equal to that model's InferMembership reference;
//   * swap under load: producers hammering Submit across repeated swaps
//     lose nothing — every future resolves, every successful answer's
//     model_version maps it to exactly the model whose reference it
//     matches bitwise (no dropped, no mis-attributed requests);
//   * SubmitBatch stamps InferenceResult::model_versions per slot;
//   * SwapModel validates the replacement (null, wrong K, fewer nodes
//     than the network) and a rejected swap leaves serving untouched;
//   * with failpoints compiled in, a snapshot build that throws
//     ("server.swap_model") propagates out of SwapModel and leaves the
//     served version, the swap count and the answers untouched; the next
//     swap publishes normally. This file runs in the TSan and failpoints
//     CI lanes.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "core/engine.h"
#include "core/inference.h"
#include "core/server.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::MakeTwoCommunityNetwork;

class ServerSwapTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new testing::TwoCommunityNetwork(
        MakeTwoCommunityNetwork(8, 1.0, 601));
    FitOptions options;
    options.attributes = {"text"};
    options.config = testing::PlantedFixtureConfig(602);
    auto fit_a = Engine::Fit(fixture_->dataset, options);
    ASSERT_TRUE(fit_a.ok()) << fit_a.status().ToString();
    model_a_ = new Model(std::move(fit_a).value().model);
    // A second, bitwise-distinct model over the same network: a different
    // seed lands in a different iterate of the same planted optimum.
    options.config = testing::PlantedFixtureConfig(603);
    options.config.seed = 604;
    auto fit_b = Engine::Fit(fixture_->dataset, options);
    ASSERT_TRUE(fit_b.ok()) << fit_b.status().ToString();
    model_b_ = new Model(std::move(fit_b).value().model);
  }

  static void TearDownTestSuite() {
    delete model_b_;
    model_b_ = nullptr;
    delete model_a_;
    model_a_ = nullptr;
    delete fixture_;
    fixture_ = nullptr;
  }

  void TearDown() override { Failpoints::DisarmAll(); }

  // Valid queries only, with per-model reference answers.
  struct QueryPool {
    std::vector<NewObjectQuery> queries;
    std::vector<std::vector<double>> reference_a;
    std::vector<std::vector<double>> reference_b;
  };

  static QueryPool MakeQueryPool(size_t count) {
    QueryPool pool;
    for (size_t i = 0; i < count; ++i) {
      NewObjectQuery q;
      q.links.push_back(
          {fixture_->docs[i % fixture_->docs.size()], fixture_->doc_doc,
           1.0 + static_cast<double>(i % 4)});
      q.observations.push_back(NewObjectObservation::Categorical(
          0, static_cast<uint32_t>(i % 4)));
      auto ref_a = InferMembership(fixture_->dataset.network, *model_a_,
                                   q.links, q.observations);
      auto ref_b = InferMembership(fixture_->dataset.network, *model_b_,
                                   q.links, q.observations);
      EXPECT_TRUE(ref_a.ok() && ref_b.ok());
      pool.reference_a.push_back(std::move(ref_a).value());
      pool.reference_b.push_back(std::move(ref_b).value());
      pool.queries.push_back(std::move(q));
    }
    return pool;
  }

  static void ExpectBitwise(const std::vector<double>& membership,
                            const std::vector<double>& reference) {
    ASSERT_EQ(membership.size(), reference.size());
    for (size_t k = 0; k < membership.size(); ++k) {
      EXPECT_EQ(membership[k], reference[k]) << "k=" << k;
    }
  }

  static testing::TwoCommunityNetwork* fixture_;
  static Model* model_a_;
  static Model* model_b_;
};

testing::TwoCommunityNetwork* ServerSwapTest::fixture_ = nullptr;
Model* ServerSwapTest::model_a_ = nullptr;
Model* ServerSwapTest::model_b_ = nullptr;

TEST_F(ServerSwapTest, AnswersAndStatsTrackTheSwap) {
  const QueryPool pool = MakeQueryPool(4);
  ServerOptions options;
  options.num_workers = 1;
  options.max_wait_us = 0;
  auto server = Server::Create(&fixture_->dataset.network, *model_a_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Server& srv = *server.value();
  EXPECT_EQ(srv.model_version(), 1u);

  auto before = srv.Submit(pool.queries[0]);
  ASSERT_TRUE(before.ok());
  QueryResult first = before.value().get();
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  ExpectBitwise(first.membership, pool.reference_a[0]);
  EXPECT_EQ(first.model_version, 1u);

  ASSERT_TRUE(srv.SwapModel(*model_b_).ok());
  EXPECT_EQ(srv.model_version(), 2u);
  EXPECT_EQ(srv.model()->Fingerprint(), model_b_->Fingerprint());

  auto after = srv.Submit(pool.queries[0]);
  ASSERT_TRUE(after.ok());
  QueryResult second = after.value().get();
  ASSERT_TRUE(second.ok()) << second.status.ToString();
  ExpectBitwise(second.membership, pool.reference_b[0]);
  EXPECT_EQ(second.model_version, 2u);

  const ServerStats stats = srv.Stats();
  EXPECT_EQ(stats.model_version, 2u);
  EXPECT_EQ(stats.model_fingerprint, model_b_->Fingerprint());
  EXPECT_EQ(stats.model_swaps, 1u);
}

TEST_F(ServerSwapTest, SubmitBatchStampsPerSlotVersions) {
  const QueryPool pool = MakeQueryPool(6);
  ServerOptions options;
  options.num_workers = 1;
  auto server = Server::Create(&fixture_->dataset.network, *model_a_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  InferenceResult result =
      server.value()->SubmitBatch(pool.queries).get();
  ASSERT_EQ(result.model_versions.size(), pool.queries.size());
  for (size_t i = 0; i < pool.queries.size(); ++i) {
    EXPECT_TRUE(result.statuses[i].ok());
    EXPECT_EQ(result.model_versions[i], 1u) << "i=" << i;
  }
}

TEST_F(ServerSwapTest, SwapValidatesReplacement) {
  ServerOptions options;
  options.num_workers = 1;
  auto server = Server::Create(&fixture_->dataset.network, *model_a_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Server& srv = *server.value();

  EXPECT_EQ(srv.SwapModel(std::shared_ptr<const Model>()).code(),
            StatusCode::kInvalidArgument);

  // Fewer nodes than the serving network: ValidateForServing rejects.
  Model shrunk = *model_a_;
  Matrix fewer(shrunk.theta.rows() - 1, shrunk.theta.cols());
  for (size_t v = 0; v < fewer.rows(); ++v) {
    for (size_t k = 0; k < fewer.cols(); ++k) {
      fewer(v, k) = shrunk.theta(v, k);
    }
  }
  shrunk.theta = std::move(fewer);
  EXPECT_EQ(srv.SwapModel(std::move(shrunk)).code(),
            StatusCode::kInvalidArgument);

  // Wrong K: SubmitBatch preallocates K-wide rows, so the server pins it.
  FitOptions k3;
  k3.attributes = {"text"};
  k3.config = testing::PlantedFixtureConfig(605);
  k3.config.num_clusters = 3;
  auto fit = Engine::Fit(fixture_->dataset, k3);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_EQ(srv.SwapModel(std::move(fit).value().model).code(),
            StatusCode::kInvalidArgument);

  // Every rejected swap left serving untouched.
  EXPECT_EQ(srv.model_version(), 1u);
  EXPECT_EQ(srv.Stats().model_swaps, 0u);
}

// The acceptance gate: producers hammer Submit while the main thread
// swaps A <-> B repeatedly. Every obtained future resolves, every
// successful answer's model_version identifies a model whose reference
// the membership matches bitwise, and the final accounting balances.
TEST_F(ServerSwapTest, SwapUnderLoadDropsAndMisattributesNothing) {
  const size_t kProducers = 4;
  const size_t kPerProducer = 150;
  const size_t kSwaps = 20;
  const QueryPool pool = MakeQueryPool(8);

  ServerOptions options;
  options.num_workers = 3;
  options.queue_capacity = 4096;  // load test: nothing should be rejected
  options.max_wait_us = 50;
  auto server = Server::Create(&fixture_->dataset.network, *model_a_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Server& srv = *server.value();

  std::atomic<size_t> submitted{0};
  std::atomic<size_t> resolved{0};
  std::atomic<size_t> wrong{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!go.load()) std::this_thread::yield();
      for (size_t i = 0; i < kPerProducer; ++i) {
        const size_t q = (p * kPerProducer + i) % pool.queries.size();
        auto future = srv.Submit(pool.queries[q]);
        ASSERT_TRUE(future.ok()) << future.status().ToString();
        submitted.fetch_add(1);
        QueryResult answer = future.value().get();
        resolved.fetch_add(1);
        ASSERT_TRUE(answer.ok()) << answer.status.ToString();
        // Version 1 and every odd version is A; even versions are B.
        ASSERT_GE(answer.model_version, 1u);
        const std::vector<double>& reference =
            (answer.model_version % 2 == 1) ? pool.reference_a[q]
                                            : pool.reference_b[q];
        if (answer.membership != reference) wrong.fetch_add(1);
      }
    });
  }
  go.store(true);
  for (size_t s = 0; s < kSwaps; ++s) {
    const Model& next = (s % 2 == 0) ? *model_b_ : *model_a_;
    ASSERT_TRUE(srv.SwapModel(next).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  for (std::thread& t : producers) t.join();

  EXPECT_EQ(submitted.load(), kProducers * kPerProducer);
  EXPECT_EQ(resolved.load(), submitted.load());  // zero dropped
  EXPECT_EQ(wrong.load(), 0u);                   // zero mis-attributed
  const ServerStats stats = srv.Stats();
  EXPECT_EQ(stats.accepted, submitted.load());
  EXPECT_EQ(stats.completed, submitted.load());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.deadline_shed, 0u);
  EXPECT_EQ(stats.model_swaps, kSwaps);
  EXPECT_EQ(stats.model_version, kSwaps + 1);
}

TEST_F(ServerSwapTest, FailedSwapBuildLeavesServedVersionIntact) {
  if (!Failpoints::kEnabled) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const QueryPool pool = MakeQueryPool(2);
  ServerOptions options;
  options.num_workers = 1;
  options.max_wait_us = 0;
  auto server = Server::Create(&fixture_->dataset.network, *model_a_, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Server& srv = *server.value();

  // The replacement's snapshot build throws: nothing is published.
  Failpoints::Arm("server.swap_model", {.max_fires = 1});
  EXPECT_THROW(static_cast<void>(srv.SwapModel(*model_b_)),
               std::runtime_error);
  EXPECT_EQ(srv.model_version(), 1u);
  EXPECT_EQ(srv.Stats().model_swaps, 0u);

  auto kept = srv.Submit(pool.queries[0]);
  ASSERT_TRUE(kept.ok());
  QueryResult answer_a = kept.value().get();
  ASSERT_TRUE(answer_a.ok()) << answer_a.status.ToString();
  ExpectBitwise(answer_a.membership, pool.reference_a[0]);
  EXPECT_EQ(answer_a.model_version, 1u);

  // The next swap builds and publishes version 2.
  ASSERT_TRUE(srv.SwapModel(*model_b_).ok());
  EXPECT_EQ(srv.model_version(), 2u);
  auto swapped = srv.Submit(pool.queries[1]);
  ASSERT_TRUE(swapped.ok());
  QueryResult answer_b = swapped.value().get();
  ASSERT_TRUE(answer_b.ok()) << answer_b.status.ToString();
  ExpectBitwise(answer_b.membership, pool.reference_b[1]);
  EXPECT_EQ(answer_b.model_version, 2u);
}

}  // namespace
}  // namespace genclus
