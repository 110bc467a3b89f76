// Batch-planned serving (BatchPlanner + InferSession behind
// Engine::Plan/Execute): edge cases — empty batch, all-invalid
// batch, duplicate links, links-only / observations-only queries,
// observation kinds and counts or readings past the observation bound,
// refused alike by Plan and InferMembership — plus the two load-bearing
// contracts: every batch result is bitwise identical to the per-query
// InferMembership reference, and bitwise invariant to the engine's pool
// size (1/2/8). Numerical coverage runs on a weather fixture so the
// shared GaussianEvalTable path is exercised too.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/inference.h"
#include "core/server.h"
#include "datagen/weather_generator.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::MakeTwoCommunityNetwork;

// Shared trained state: fitting once per suite keeps the file fast.
class ServeBatchFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new testing::TwoCommunityNetwork(
        MakeTwoCommunityNetwork(8, 1.0, 401));
    FitOptions options;
    options.attributes = {"text"};
    options.config = testing::PlantedFixtureConfig(402);
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

  static Engine MakeEngine(size_t num_threads) {
    EngineOptions options;
    options.num_threads = num_threads;
    auto engine =
        Engine::Create(&fixture_->dataset.network, *model_, options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return std::move(engine).value();
  }

  static std::vector<double> Reference(const NewObjectQuery& query) {
    auto direct = InferMembership(fixture_->dataset.network, *model_,
                                  query.links, query.observations);
    EXPECT_TRUE(direct.ok()) << direct.status().ToString();
    return *direct;
  }

  static testing::TwoCommunityNetwork* fixture_;
  static Model* model_;
};

testing::TwoCommunityNetwork* ServeBatchFixture::fixture_ = nullptr;
Model* ServeBatchFixture::model_ = nullptr;

TEST_F(ServeBatchFixture, EmptyBatch) {
  Engine engine = MakeEngine(2);
  const InferPlan plan = engine.Plan({});
  EXPECT_EQ(plan.num_queries(), 0u);
  EXPECT_EQ(plan.num_rows(), 0u);
  const InferenceResult result = engine.Execute(plan);
  EXPECT_EQ(result.size(), 0u);
  EXPECT_EQ(result.report.batch_size, 0u);
  EXPECT_EQ(result.report.exec_blocks, 0u);
  EXPECT_TRUE(engine.InferBatch({}).empty());
}

TEST_F(ServeBatchFixture, AllInvalidBatchExecutesToStatusesOnly) {
  Engine engine = MakeEngine(2);
  std::vector<NewObjectQuery> queries(3);
  queries[0].links.push_back({static_cast<NodeId>(999999),
                              fixture_->doc_doc, 1.0});
  queries[1].links.push_back({fixture_->docs[0], 99, 1.0});
  queries[2].observations.push_back(
      NewObjectObservation::Categorical(0, /*term=*/77));

  const InferPlan plan = engine.Plan(queries);
  EXPECT_EQ(plan.num_queries(), 3u);
  EXPECT_EQ(plan.num_rows(), 0u);
  const InferenceResult result = engine.Execute(plan);
  ASSERT_EQ(result.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(result.ok(i)) << "query " << i;
    EXPECT_EQ(result.statuses[i].code(), StatusCode::kInvalidArgument);
    for (double value : result.membership(i)) EXPECT_EQ(value, 0.0);
    EXPECT_EQ(result.hard_labels[i], kNoHardLabel);
    // The planner's fused validation must report exactly the status the
    // reference path reports for the same query.
    auto reference =
        InferMembership(fixture_->dataset.network, *model_,
                        queries[i].links, queries[i].observations);
    EXPECT_EQ(result.statuses[i], reference.status()) << "query " << i;
  }
  EXPECT_EQ(result.report.valid_queries, 0u);
}

TEST_F(ServeBatchFixture, DuplicateLinksToSameTargetSumTheirWeights) {
  Engine engine = MakeEngine(1);
  NewObjectQuery split;  // two links to the same target
  split.links.push_back({fixture_->docs[0], fixture_->doc_doc, 0.75});
  split.links.push_back({fixture_->docs[0], fixture_->doc_doc, 1.25});
  NewObjectQuery merged;  // one link carrying the summed weight
  merged.links.push_back({fixture_->docs[0], fixture_->doc_doc, 2.0});

  // Bitwise against the reference, which also keeps the links separate.
  auto batch = engine.InferBatch(std::span(&split, 1));
  ASSERT_TRUE(batch[0].ok());
  EXPECT_EQ(*batch[0], Reference(split));
  // And numerically the weights sum — an overwrite would drop 0.75.
  auto merged_batch = engine.InferBatch(std::span(&merged, 1));
  ASSERT_TRUE(merged_batch[0].ok());
  for (size_t k = 0; k < batch[0]->size(); ++k) {
    EXPECT_NEAR((*batch[0])[k], (*merged_batch[0])[k], 1e-12);
  }
}

TEST_F(ServeBatchFixture, LinksOnlyAndObservationsOnlyQueries) {
  Engine engine = MakeEngine(2);
  std::vector<NewObjectQuery> queries(3);
  for (int i = 0; i < 3; ++i) {
    queries[0].links.push_back({fixture_->docs[i], fixture_->doc_doc, 1.0});
  }
  queries[1].observations.push_back(
      NewObjectObservation::Categorical(0, /*term=*/2, /*count=*/3.0));
  // queries[2] carries no evidence at all: uniform membership.
  const auto batch = engine.InferBatch(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << "query " << i;
    EXPECT_EQ(*batch[i], Reference(queries[i])) << "query " << i;
  }
  const size_t k = batch[2]->size();
  for (size_t c = 0; c < k; ++c) {
    EXPECT_NEAR((*batch[2])[c], 1.0 / static_cast<double>(k), 1e-12);
  }
}

TEST_F(ServeBatchFixture, BatchBitwiseEqualsReferenceAcrossPoolSizes) {
  // A batch wider than one execution block, with invalid queries
  // interleaved so CSR rows and query slots diverge.
  std::vector<NewObjectQuery> queries;
  for (size_t i = 0; i < 41; ++i) {
    NewObjectQuery q;
    const size_t doc = i % fixture_->docs.size();
    if (i % 3 != 1) {
      q.links.push_back({fixture_->docs[doc], fixture_->doc_doc,
                         1.0 + 0.125 * static_cast<double>(i % 5)});
      q.links.push_back({fixture_->tags[i % 2], fixture_->doc_tag, 0.5});
    }
    if (i % 3 != 2) {
      q.observations.push_back(NewObjectObservation::Categorical(
          0, static_cast<uint32_t>(i % 4), 1.0 + static_cast<double>(i % 3)));
    }
    if (i % 10 == 7) {
      q.links.push_back({static_cast<NodeId>(999999), fixture_->doc_doc,
                         1.0});  // poison this slot only
    }
    queries.push_back(std::move(q));
  }

  std::vector<InferenceResult> results;
  for (size_t threads : {1u, 2u, 8u}) {
    Engine engine = MakeEngine(threads);
    const InferPlan plan = engine.Plan(queries);
    results.push_back(engine.Execute(plan));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i % 10 == 7) {
      EXPECT_FALSE(results[0].ok(i));
      continue;
    }
    ASSERT_TRUE(results[0].ok(i)) << "query " << i;
    const std::vector<double> reference = Reference(queries[i]);
    for (size_t r = 0; r < results.size(); ++r) {
      // Bitwise: EXPECT_EQ on the double vectors, no tolerance.
      EXPECT_EQ(results[r].memberships.RowVector(i), reference)
          << "query " << i << " pool variant " << r;
      EXPECT_EQ(results[r].hard_labels[i], results[0].hard_labels[i]);
      EXPECT_EQ(results[r].statuses[i], results[0].statuses[i]);
    }
  }
}

TEST_F(ServeBatchFixture, PlanMapsRowsPastInvalidQueriesAndFoldsGamma) {
  Engine engine = MakeEngine(1);
  std::vector<NewObjectQuery> queries(4);
  queries[0].links.push_back({fixture_->docs[0], fixture_->doc_doc, 2.0});
  queries[1].links.push_back({fixture_->docs[0], 99, 1.0});  // invalid
  queries[2].observations.push_back(NewObjectObservation::Categorical(0, 1));
  queries[3].links.push_back({fixture_->docs[1], fixture_->doc_tag, 1.0});
  queries[3].links.push_back({fixture_->docs[2], fixture_->doc_doc, 3.0});

  const InferPlan plan = engine.Plan(queries);
  ASSERT_EQ(plan.num_queries(), 4u);
  ASSERT_EQ(plan.num_rows(), 3u);
  EXPECT_EQ(plan.row_to_query, (std::vector<size_t>{0, 2, 3}));
  ASSERT_EQ(plan.row_offsets, (std::vector<size_t>{0, 1, 1, 3}));
  EXPECT_EQ(plan.link_cols,
            (std::vector<uint32_t>{fixture_->docs[0], fixture_->docs[1],
                                   fixture_->docs[2]}));
  // Values carry gamma(type) * weight; each row's non-zeros are
  // stable-sorted by target column (these targets already ascend).
  const std::vector<double>& gamma = engine.model().gamma;
  EXPECT_EQ(plan.link_values[0], gamma[fixture_->doc_doc] * 2.0);
  EXPECT_EQ(plan.link_values[1], gamma[fixture_->doc_tag] * 1.0);
  EXPECT_EQ(plan.link_values[2], gamma[fixture_->doc_doc] * 3.0);
  EXPECT_EQ(plan.observation_offsets, (std::vector<size_t>{0, 0, 1, 1}));
  EXPECT_EQ(plan.total_links, 3u);
  EXPECT_EQ(plan.total_observations, 1u);
}

TEST_F(ServeBatchFixture, PlanStableSortsEachRowByTargetColumn) {
  Engine engine = MakeEngine(1);
  NewObjectQuery query;
  // Descending targets plus a duplicate: the plan must stable-sort the
  // row by target column (ties keep submission order) with each value
  // staying paired to its link.
  query.links.push_back({fixture_->docs[3], fixture_->doc_doc, 5.0});
  query.links.push_back({fixture_->docs[1], fixture_->doc_doc, 1.0});
  query.links.push_back({fixture_->docs[3], fixture_->doc_doc, 7.0});
  query.links.push_back({fixture_->docs[0], fixture_->doc_doc, 2.0});
  const InferPlan plan = engine.Plan(std::span(&query, 1));
  ASSERT_EQ(plan.num_rows(), 1u);
  EXPECT_EQ(plan.link_cols,
            (std::vector<uint32_t>{fixture_->docs[0], fixture_->docs[1],
                                   fixture_->docs[3], fixture_->docs[3]}));
  const double gamma_dd = engine.model().gamma[fixture_->doc_doc];
  EXPECT_EQ(plan.link_values,
            (std::vector<double>{gamma_dd * 2.0, gamma_dd * 1.0,
                                 gamma_dd * 5.0, gamma_dd * 7.0}));
}

TEST_F(ServeBatchFixture, ExecutionIsBitwiseInvariantToThetaShardCount) {
  // The same batch served through 1, 2 and 4 Θ column shards (and a
  // sharded planner over an auto-stamped model) must produce bitwise
  // identical memberships — the per-shard link terms merge in ascending
  // shard order, replaying the monolithic accumulation chain.
  std::vector<NewObjectQuery> queries(9);
  for (size_t i = 0; i < queries.size(); ++i) {
    NewObjectQuery& q = queries[i];
    q.links.push_back({fixture_->docs[(i * 3) % 16], fixture_->doc_doc,
                       1.0 + 0.25 * static_cast<double>(i)});
    q.links.push_back({fixture_->docs[15 - i % 16], fixture_->doc_doc, 2.0});
    q.links.push_back({fixture_->tags[i % 2], fixture_->doc_tag, 1.5});
    if (i % 2 == 0) {
      q.observations.push_back(
          NewObjectObservation::Categorical(0, i % 4, 1.0 + i));
    }
  }
  Matrix baseline;
  for (size_t shards : {1, 2, 4}) {
    EngineOptions options;
    options.num_threads = 2;
    options.theta_shards = shards;
    auto engine =
        Engine::Create(&fixture_->dataset.network, *model_, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const InferenceResult result = engine->Execute(engine->Plan(queries));
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(result.ok(i)) << "shards " << shards << " query " << i;
    }
    if (shards == 1) {
      baseline = result.memberships;
      continue;
    }
    EXPECT_EQ(result.memberships.data(), baseline.data())
        << "shards " << shards;
  }
}

TEST_F(ServeBatchFixture, ExecuteReportsBatchStatsAndBlocks) {
  Engine engine = MakeEngine(2);
  std::vector<NewObjectQuery> queries(ServeDefaults::kBatchBlockGrain + 3);
  for (auto& q : queries) {
    q.links.push_back({fixture_->docs[0], fixture_->doc_doc, 1.0});
  }
  const InferenceResult result = engine.Execute(engine.Plan(queries));
  EXPECT_EQ(result.report.batch_size, queries.size());
  EXPECT_EQ(result.report.valid_queries, queries.size());
  EXPECT_EQ(result.report.total_links, queries.size());
  EXPECT_EQ(result.report.total_observations, 0u);
  EXPECT_EQ(result.report.exec_blocks, 2u);
  EXPECT_GE(result.report.exec_seconds, 0.0);
}

TEST_F(ServeBatchFixture, ServerSubmitBatchMatchesSynchronousExecution) {
  Engine engine = MakeEngine(2);
  std::vector<NewObjectQuery> queries(3);
  queries[0].links.push_back({fixture_->docs[0], fixture_->doc_doc, 1.0});
  queries[1].observations.push_back(
      NewObjectObservation::Categorical(0, 2, 2.0));
  queries[2].links.push_back({fixture_->docs[0], 99, 1.0});  // invalid

  ServerOptions server_options;
  server_options.num_workers = 2;
  auto server =
      Server::Create(&fixture_->dataset.network, *model_, server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  std::future<InferenceResult> future =
      (*server)->SubmitBatch(queries);
  const InferenceResult async_result = future.get();
  const InferenceResult sync_result = engine.Execute(engine.Plan(queries));
  ASSERT_EQ(async_result.size(), sync_result.size());
  EXPECT_EQ(async_result.memberships.data(), sync_result.memberships.data());
  for (size_t i = 0; i < sync_result.size(); ++i) {
    EXPECT_EQ(async_result.statuses[i], sync_result.statuses[i]);
    EXPECT_EQ(async_result.hard_labels[i], sync_result.hard_labels[i]);
  }
}

TEST_F(ServeBatchFixture, ObservationFactoriesValidateKindAtPlanTime) {
  Engine engine = MakeEngine(1);
  // Attribute 0 is categorical text; a factory-built numerical
  // observation must be rejected at plan time with a precise message.
  NewObjectQuery wrong_kind;
  wrong_kind.observations.push_back(
      NewObjectObservation::Numerical(0, 1.5));
  const InferPlan plan = engine.Plan(std::span(&wrong_kind, 1));
  ASSERT_FALSE(plan.statuses[0].ok());
  EXPECT_EQ(plan.statuses[0].code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.statuses[0].message().find("numerical observation"),
            std::string::npos);
  EXPECT_NE(plan.statuses[0].message().find("text"), std::string::npos);

  // Negative counts, and counts past kMaxObservationMagnitude, which a
  // dataset's Attribute refuses too, are refused by Plan and the
  // reference path alike. Two DBL_MAX counts would overflow the mixture,
  // and the answer would fall back to the uniform vector, dropping the
  // query's links.
  for (double count : {-2.0, 1.5e100, std::numeric_limits<double>::max(),
                       std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(count);
    NewObjectQuery bad_count;
    bad_count.links.push_back({fixture_->docs[0], fixture_->doc_doc, 1.0});
    bad_count.observations = {NewObjectObservation::Categorical(0, 1, count),
                              NewObjectObservation::Categorical(0, 2, count)};
    const Status planned = engine.Plan(std::span(&bad_count, 1)).statuses[0];
    EXPECT_EQ(planned.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(InferMembership(fixture_->dataset.network, *model_,
                              bad_count.links, bad_count.observations)
                  .status(),
              planned);
  }
  // The bound itself is served.
  NewObjectQuery at_bound;
  at_bound.observations.push_back(
      NewObjectObservation::Categorical(0, 1, kMaxObservationMagnitude));
  EXPECT_TRUE(engine.Plan(std::span(&at_bound, 1)).statuses[0].ok());

  // An aggregate-initialized observation is categorical.
  NewObjectQuery aggregate;
  aggregate.observations.push_back({0, /*term=*/1, /*count=*/2.0, 0.0});
  EXPECT_TRUE(engine.Plan(std::span(&aggregate, 1)).statuses[0].ok());
}

TEST_F(ServeBatchFixture, ReferencePathRejectsKindMismatchesToo) {
  // The shared validation keeps the reference path and the planner in
  // lockstep: InferMembership rejects the same factory-built mismatch.
  auto result =
      InferMembership(fixture_->dataset.network, *model_, {},
                      {NewObjectObservation::Numerical(0, 1.5)});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// A fitted weather network: numerical attributes 0 = temperature and
// 1 = precipitation, fitted once per suite.
class ServeBatchWeatherTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WeatherConfig config;
    config.num_temperature_sensors = 60;
    config.num_precipitation_sensors = 30;
    config.observations_per_sensor = 3;
    config.seed = 17;
    auto data = GenerateWeatherNetwork(config);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    data_ = new WeatherData(std::move(data).value());

    FitOptions fit_options;
    fit_options.attributes = {"temperature", "precipitation"};
    fit_options.config.num_clusters = data_->true_membership.cols();
    fit_options.config.outer_iterations = 2;
    fit_options.config.em_iterations = 15;
    fit_options.config.seed = 5;
    auto fit = Engine::Fit(data_->dataset, fit_options);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    model_ = new Model(std::move(fit).value().model);
  }

  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  static WeatherData* data_;
  static Model* model_;
};

WeatherData* ServeBatchWeatherTest::data_ = nullptr;
Model* ServeBatchWeatherTest::model_ = nullptr;

// Numerical attributes: the batch path shares one GaussianEvalTable per
// attribute across the whole batch and hoists log theta per sweep; both
// must leave results bitwise equal to the per-query reference.
TEST_F(ServeBatchWeatherTest, NumericalBatchBitwiseEqualsReference) {
  const WeatherData* data = data_;
  const Model& model = *model_;

  // New sensors: a few links of each relation plus numerical readings of
  // both model attributes (0 = temperature, 1 = precipitation).
  std::vector<NewObjectQuery> queries;
  const size_t num_nodes = data->dataset.network.num_nodes();
  for (size_t i = 0; i < 23; ++i) {
    NewObjectQuery q;
    for (size_t j = 0; j < 4; ++j) {
      q.links.push_back(
          {static_cast<NodeId>((i * 7 + j * 13) % num_nodes),
           j % 2 == 0 ? data->tt_link : data->tp_link, 1.0});
    }
    q.observations.push_back(NewObjectObservation::Numerical(
        0, 1.0 + 0.2 * static_cast<double>(i % 8)));
    q.observations.push_back(NewObjectObservation::Numerical(
        1, 2.0 - 0.15 * static_cast<double>(i % 5)));
    queries.push_back(std::move(q));
  }

  std::vector<std::vector<Result<std::vector<double>>>> per_pool;
  for (size_t threads : {1u, 2u, 8u}) {
    EngineOptions options;
    options.num_threads = threads;
    auto engine = Engine::Create(&data->dataset.network, model, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    per_pool.push_back(engine->InferBatch(queries));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    auto reference = InferMembership(data->dataset.network, model,
                                     queries[i].links,
                                     queries[i].observations);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (size_t p = 0; p < per_pool.size(); ++p) {
      ASSERT_TRUE(per_pool[p][i].ok()) << "query " << i << " pool " << p;
      EXPECT_EQ(*per_pool[p][i], *reference)
          << "query " << i << " pool variant " << p;
    }
  }
}

// An aggregate-initialized observation is categorical, so on a numerical
// attribute it is refused with the factory to use.
TEST_F(ServeBatchWeatherTest, AggregateObservationOnNumericalIsRefused) {
  NewObjectQuery aggregate;
  aggregate.observations.push_back(
      {0, /*term=*/0, /*count=*/1.0, /*value=*/1.5});
  auto engine = Engine::Create(&data_->dataset.network, *model_);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const InferPlan plan = engine->Plan(std::span(&aggregate, 1));
  EXPECT_EQ(plan.statuses[0].code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.statuses[0].message().find(
                "use NewObjectObservation::Numerical"),
            std::string::npos)
      << plan.statuses[0].message();
  auto reference = InferMembership(data_->dataset.network, *model_, {},
                                   aggregate.observations);
  EXPECT_EQ(reference.status(), plan.statuses[0]);
}

// Readings past kMaxObservationMagnitude, which a dataset's Attribute
// refuses, are refused by Plan and the reference path alike. Squared,
// a reading of 1e160 or DBL_MAX overflows, the logits turn NaN and the
// answer would fall back to the uniform vector, dropping the query's
// links and its other readings.
TEST_F(ServeBatchWeatherTest, ReadingsPastTheObservationBoundAreRefused) {
  auto engine = Engine::Create(&data_->dataset.network, *model_);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const double max = std::numeric_limits<double>::max();
  for (double value : {1e160, -1e160, max, -max, 1.5e100}) {
    SCOPED_TRACE(value);
    NewObjectQuery query;
    query.links.push_back({0, data_->tt_link, 1.0});
    query.observations = {NewObjectObservation::Numerical(0, 1.0),
                          NewObjectObservation::Numerical(1, value)};
    const InferPlan plan = engine->Plan(std::span(&query, 1));
    EXPECT_EQ(plan.statuses[0].code(), StatusCode::kInvalidArgument);
    EXPECT_NE(plan.statuses[0].message().find("at most 1e+100"),
              std::string::npos)
        << plan.statuses[0].message();
    auto reference = InferMembership(data_->dataset.network, *model_,
                                     query.links, query.observations);
    EXPECT_EQ(reference.status(), plan.statuses[0]);
  }
  // The bound itself is served.
  NewObjectQuery at_bound;
  at_bound.observations.push_back(
      NewObjectObservation::Numerical(0, -kMaxObservationMagnitude));
  EXPECT_TRUE(engine->Plan(std::span(&at_bound, 1)).statuses[0].ok());
  EXPECT_TRUE(InferMembership(data_->dataset.network, *model_, {},
                              at_bound.observations)
                  .ok());
}

}  // namespace
}  // namespace genclus
