// Incremental model maintenance (core/update.h):
//   * Engine::Refit warm-starts from a previous model — surviving nodes
//     keep their Theta rows as the initial iterate, new nodes are seeded
//     by fold-in, gamma/components carry over — and lands within NMI
//     tolerance of a from-scratch fit on the grown dataset;
//   * on a weather deployment, a two-iteration warm Refit reaches the
//     cold fit's NMI minus 0.01 at no more than half of its EM sweeps
//     (initialization included), with a Model::Fingerprint that is the
//     same for every thread count;
//   * a warm start from the converged model on the SAME dataset converges
//     (nearly) immediately — the degenerate refit every nightly job hits
//     when nothing arrived;
//   * ApplyUpdates folds NetworkDelta batches into a Dataset + Model in
//     place: shapes grow, every row stays on the K-simplex, untouched
//     rows are bitwise untouched, and the result is independent of how
//     the same growth is split into delta batches;
//   * one ApplyUpdates round is the serving fold-in: every re-solved row
//     equals, bit for bit, Engine::InferBatch's answer for the query with
//     that node's out-links and observations — on a hand-built network
//     where relation order and target order round differently, and on
//     fitted networks with categorical and numerical observations;
//   * the component refresh resumes from the model's kept M-step sums
//     exactly when only appended rows carry changed observations (one-
//     paper deltas on ACP), runs the full pass otherwise (re-solved
//     sensors with readings; an edited Theta row or attribute, another
//     dataset of the same size, a call without refresh, a binary round
//     trip, a copied model), keeps no sums after re-solving an observed
//     row, keeps resuming past a refused delta and across a move, and
//     always leaves the components bit for bit those of a cold pass;
//   * both paths validate their inputs (shrunk dataset, node-count
//     mismatch, bad options, a previous model of another attribute
//     shape), and ApplyUpdates is all-or-nothing: a failing delta — for
//     every rule a delta can break — leaves the dataset and the model
//     untouched.
#include "core/update.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/em.h"
#include "core/engine.h"
#include "core/model_io.h"
#include "datagen/dblp_generator.h"
#include "datagen/weather_generator.h"
#include "eval/nmi.h"
#include "hin/delta.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::MakeTwoCommunityNetwork;

// The query a new object with v's out-links and v's observations of the
// model's attributes would send.
NewObjectQuery NodeQuery(const Dataset& dataset, const Model& model, NodeId v) {
  NewObjectQuery query;
  for (const LinkEntry& e : dataset.network.OutLinks(v)) {
    query.links.push_back({e.neighbor, e.type, e.weight});
  }
  for (size_t a = 0; a < model.attributes.size(); ++a) {
    const Attribute& attr =
        dataset.attributes[dataset.FindAttribute(model.attributes[a].name)];
    const AttributeId id = static_cast<AttributeId>(a);
    if (attr.kind() == AttributeKind::kCategorical) {
      for (const TermCount& tc : attr.TermCounts(v)) {
        query.observations.push_back(
            NewObjectObservation::Categorical(id, tc.term, tc.count));
      }
    } else {
      for (double x : attr.Values(v)) {
        query.observations.push_back(NewObjectObservation::Numerical(id, x));
      }
    }
  }
  return query;
}

// Applies `delta` with one Jacobi round and carried components, then
// expects every re-solved row (new nodes, sources of new links, nodes with
// new observations) to be bit for bit Engine::InferBatch's answer for
// that node's query against the Theta the round read: the survivors'
// rows, new rows uniform. Counts the re-solved survivors.
void ExpectOneRoundIsServedFoldIn(Dataset* dataset, Model* model,
                                  const NetworkDelta& delta,
                                  size_t* survivors) {
  const size_t old_nodes = dataset->network.num_nodes();
  Model read = *model;
  UpdateOptions options;
  options.rounds = 1;
  options.refresh_components = false;
  auto report = ApplyUpdates(dataset, model, {&delta, 1}, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const size_t n = dataset->network.num_nodes();
  const double uniform = 1.0 / static_cast<double>(read.num_clusters());
  read.theta.AppendRows(n - old_nodes, uniform);

  std::vector<bool> touched(n, false);
  for (size_t v = old_nodes; v < n; ++v) touched[v] = true;
  for (const DeltaLink& link : delta.links) touched[link.src] = true;
  for (const DeltaObservation& obs : delta.observations) {
    touched[obs.node] = true;
  }
  std::vector<NodeId> rows;
  std::vector<NewObjectQuery> queries;
  for (NodeId v = 0; v < n; ++v) {
    if (!touched[v]) continue;
    rows.push_back(v);
    queries.push_back(NodeQuery(*dataset, read, v));
  }
  EXPECT_EQ(report.value().touched_nodes, rows.size());

  EngineOptions serial;
  serial.num_threads = 1;
  auto engine = Engine::Create(&dataset->network, std::move(read), serial);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const auto answers = engine.value().InferBatch(queries);
  *survivors = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(answers[i].ok()) << answers[i].status().ToString();
    for (size_t k = 0; k < model->num_clusters(); ++k) {
      EXPECT_EQ(model->theta(rows[i], k), answers[i].value()[k])
          << "node " << rows[i] << ", cluster " << k;
    }
    if (rows[i] < old_nodes) ++*survivors;
  }
}

TEST(UpdateFoldInTest, OneRoundSumsLinksInServingOrder) {
  // Three nodes of one type and two relations with gamma = (1, 1). The
  // new node links to node 2 by `a` (weight 1) and to nodes 0 and 1 by
  // `b` (weight 2^-53 each). Relation order adds 0.75 first, so both tiny
  // terms round away from its first component; target order adds them
  // first, where they survive. The two orders give different bits.
  Schema schema;
  const ObjectTypeId type = schema.AddObjectType("node").value();
  const LinkTypeId a = schema.AddLinkType("a", type, type).value();
  const LinkTypeId b = schema.AddLinkType("b", type, type).value();
  NetworkBuilder builder(schema);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(builder.AddNode(type).ok());
  auto network = std::move(builder).Build();
  ASSERT_TRUE(network.ok()) << network.status().ToString();
  Dataset dataset;
  dataset.network = std::move(network).value();

  Model model;
  model.theta = Matrix(3, 2);
  const double rows[3][2] = {{0.5, 0.5}, {0.5, 0.5}, {0.75, 0.25}};
  for (size_t v = 0; v < 3; ++v) {
    for (size_t k = 0; k < 2; ++k) model.theta(v, k) = rows[v][k];
  }
  model.gamma = {1.0, 1.0};
  model.link_types = {"a", "b"};

  NetworkDelta delta;
  delta.nodes.push_back({type, "new"});
  const double tiny = std::ldexp(1.0, -53);
  delta.links.push_back({3, 2, a, 1.0});
  delta.links.push_back({3, 0, b, tiny});
  delta.links.push_back({3, 1, b, tiny});
  size_t survivors = 0;
  ExpectOneRoundIsServedFoldIn(&dataset, &model, delta, &survivors);
  EXPECT_EQ(survivors, 0u);
}

TEST(UpdateFoldInTest, OneRoundIsServedFoldInWithNumericalObservations) {
  // A fitted weather network: Gaussian evidence on every sensor. The last
  // 20 precipitation sensors arrive as one delta; older sensors whose
  // nearest neighbors they are gain out-links and are re-solved too.
  WeatherConfig config = WeatherConfig::Setting1();
  config.num_temperature_sensors = 80;
  config.num_precipitation_sensors = 40;
  config.seed = 911;
  auto weather = GenerateWeatherNetwork(config);
  ASSERT_TRUE(weather.ok()) << weather.status().ToString();
  const Dataset& full = weather.value().dataset;
  NetworkDelta delta;
  auto base = SliceDatasetPrefix(full, full.network.num_nodes() - 20, &delta);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  Dataset dataset = std::move(base).value();

  FitOptions options;
  options.attributes = {"temperature", "precipitation"};
  options.config.num_clusters = 4;
  options.config.outer_iterations = 2;
  options.config.em_iterations = 10;
  options.config.num_init_seeds = 1;
  options.config.num_threads = 1;
  options.config.seed = 912;
  auto fit = Engine::Fit(dataset, options);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  Model model = std::move(fit).value().model;

  size_t survivors = 0;
  ExpectOneRoundIsServedFoldIn(&dataset, &model, delta, &survivors);
  EXPECT_GT(survivors, 0u);
}

class UpdateTest : public ::testing::Test {
 protected:
  // One grown fixture shared by the suite: `full` is the 8-per-side
  // network, `base` its two-thirds prefix, `remainder` the growth delta
  // between them. Fitting once keeps the file fast.
  static void SetUpTestSuite() {
    full_ = new testing::TwoCommunityNetwork(
        MakeTwoCommunityNetwork(8, 1.0, 901));
    const size_t total = full_->dataset.network.num_nodes();
    auto remainder = new NetworkDelta();
    auto base = SliceDatasetPrefix(full_->dataset, (2 * total) / 3,
                                   remainder);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    base_ = new Dataset(std::move(base).value());
    remainder_ = remainder;

    FitOptions options;
    options.attributes = {"text"};
    options.config = testing::PlantedFixtureConfig(902);
    auto fit = Engine::Fit(*base_, options);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    base_model_ = new Model(std::move(fit).value().model);
  }

  static void TearDownTestSuite() {
    delete base_model_;
    base_model_ = nullptr;
    delete remainder_;
    remainder_ = nullptr;
    delete base_;
    base_ = nullptr;
    delete full_;
    full_ = nullptr;
  }

  static void ExpectRowsOnSimplex(const Matrix& theta) {
    for (size_t v = 0; v < theta.rows(); ++v) {
      double sum = 0.0;
      for (size_t k = 0; k < theta.cols(); ++k) {
        EXPECT_GT(theta(v, k), 0.0) << "v=" << v;
        sum += theta(v, k);
      }
      EXPECT_NEAR(sum, 1.0, 1e-9) << "v=" << v;
    }
  }

  static double LabelNmi(const Model& model, const Dataset& dataset) {
    std::vector<uint32_t> truth(dataset.network.num_nodes());
    for (NodeId v = 0; v < dataset.network.num_nodes(); ++v) {
      truth[v] = dataset.labels.Get(v);
    }
    return NormalizedMutualInformation(model.HardLabels(), truth);
  }

  static testing::TwoCommunityNetwork* full_;
  static Dataset* base_;
  static NetworkDelta* remainder_;
  static Model* base_model_;
};

testing::TwoCommunityNetwork* UpdateTest::full_ = nullptr;
Dataset* UpdateTest::base_ = nullptr;
NetworkDelta* UpdateTest::remainder_ = nullptr;
Model* UpdateTest::base_model_ = nullptr;

TEST_F(UpdateTest, RefitMatchesFullFitQualityOnGrownDataset) {
  FitOptions full_options;
  full_options.attributes = {"text"};
  full_options.config = testing::PlantedFixtureConfig(903);
  auto fullfit = Engine::Fit(full_->dataset, full_options);
  ASSERT_TRUE(fullfit.ok()) << fullfit.status().ToString();

  RefitOptions options;
  options.config = testing::PlantedFixtureConfig(904);
  auto refit = Engine::Refit(full_->dataset, *base_model_, options);
  ASSERT_TRUE(refit.ok()) << refit.status().ToString();

  const Model& warm = refit.value().model;
  EXPECT_EQ(warm.num_nodes(), full_->dataset.network.num_nodes());
  EXPECT_EQ(warm.num_clusters(), base_model_->num_clusters());
  ExpectRowsOnSimplex(warm.theta);
  EXPECT_TRUE(warm.ValidateAgainst(full_->dataset.network).ok());

  // The refit must recover the planted structure as well as the
  // from-scratch fit (RefitCostTest gates the cost side of this bargain).
  const double full_nmi = LabelNmi(fullfit.value().model, full_->dataset);
  const double warm_nmi = LabelNmi(warm, full_->dataset);
  EXPECT_GE(warm_nmi, full_nmi - 0.01)
      << "full=" << full_nmi << " warm=" << warm_nmi;
}

TEST_F(UpdateTest, RefitOnUnchangedDatasetConvergesImmediately) {
  RefitOptions options;
  options.config = testing::PlantedFixtureConfig(905);
  auto refit = Engine::Refit(*base_, *base_model_, options);
  ASSERT_TRUE(refit.ok()) << refit.status().ToString();
  // Warm-started at the converged iterate with carried gamma, the outer
  // loop's gamma step has nothing to move: it must stop at the tolerance
  // well before the iteration cap.
  EXPECT_TRUE(refit.value().report.converged);
  EXPECT_LT(refit.value().report.outer_iterations,
            options.config.outer_iterations);
}

TEST_F(UpdateTest, RefitValidatesInputs) {
  RefitOptions options;
  options.config = testing::PlantedFixtureConfig(906);
  // A refit cannot shrink: the previous model covers more nodes than the
  // dataset.
  FitOptions base_options;
  base_options.attributes = {"text"};
  base_options.config = testing::PlantedFixtureConfig(907);
  auto fullfit = Engine::Fit(full_->dataset, base_options);
  ASSERT_TRUE(fullfit.ok()) << fullfit.status().ToString();
  auto shrunk = Engine::Refit(*base_, fullfit.value().model, options);
  EXPECT_EQ(shrunk.status().code(), StatusCode::kInvalidArgument);

  // Previous models that are internally consistent but were trained on a
  // different attribute shape: a larger categorical vocabulary, and a
  // numerical attribute where the dataset's is categorical.
  const size_t num_clusters = base_model_->num_clusters();
  Model wrong_vocab = *base_model_;
  wrong_vocab.attributes[0].vocab_size += 1;
  wrong_vocab.components[0] = AttributeComponents::CategoricalUniform(
      num_clusters, wrong_vocab.attributes[0].vocab_size);
  ASSERT_TRUE(wrong_vocab.Validate().ok());
  EXPECT_EQ(Engine::Refit(full_->dataset, wrong_vocab, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  Model wrong_kind = *base_model_;
  wrong_kind.attributes[0].kind = AttributeKind::kNumerical;
  wrong_kind.attributes[0].vocab_size = 0;
  wrong_kind.components[0] = AttributeComponents::Numerical(
      std::vector<GaussianDistribution>(num_clusters,
                                        GaussianDistribution(0.0, 1.0)));
  ASSERT_TRUE(wrong_kind.Validate().ok());
  EXPECT_EQ(Engine::Refit(full_->dataset, wrong_kind, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// A nightly deployment on a weather network: the base model is fitted
// with 80% of the precipitation sensors, the rest arrive as one delta,
// and the grown network is solved twice, cold and warm. The schedule is
// the paper's weather one (§5.2.1): 5 outer iterations, best of 5
// tentative seeds.
class RefitCostTest : public ::testing::Test {
 protected:
  static GenClusConfig ColdConfig() {
    GenClusConfig config;
    config.num_clusters = 4;
    config.outer_iterations = 5;
    config.em_iterations = 40;
    config.num_init_seeds = 5;
    config.init_em_steps = 5;
    config.seed = 17;
    return config;
  }

  static void SetUpTestSuite() {
    WeatherConfig wconfig = WeatherConfig::Setting1();
    wconfig.num_temperature_sensors = 250;
    wconfig.num_precipitation_sensors = 120;
    wconfig.observations_per_sensor = 5;
    wconfig.seed = 11;
    auto weather = GenerateWeatherNetwork(wconfig);
    ASSERT_TRUE(weather.ok()) << weather.status().ToString();
    full_ = new Dataset(std::move(weather).value().dataset);
    auto base = SliceDatasetPrefix(*full_, 250 + 96, nullptr);
    ASSERT_TRUE(base.ok()) << base.status().ToString();

    FitOptions options;
    options.attributes = {"temperature", "precipitation"};
    options.config = ColdConfig();
    auto base_fit = Engine::Fit(*base, options);
    ASSERT_TRUE(base_fit.ok()) << base_fit.status().ToString();
    base_model_ = new Model(std::move(base_fit).value().model);
    auto cold = Engine::Fit(*full_, options);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    cold_ = new FitResult(std::move(cold).value());
  }

  static void TearDownTestSuite() {
    delete cold_;
    cold_ = nullptr;
    delete base_model_;
    base_model_ = nullptr;
    delete full_;
    full_ = nullptr;
  }

  // A warm refresh does not repeat the cold schedule: the base model
  // carries the converged γ and most Θ rows, so two outer iterations
  // absorb the delta.
  static RefitOptions WarmOptions() {
    RefitOptions options;
    options.config = ColdConfig();
    options.config.outer_iterations = 2;
    return options;
  }

  static size_t TracedSweeps(const FitReport& report) {
    size_t sweeps = 0;
    for (const OuterIterationRecord& record : report.trace) {
      sweeps += record.em_iterations;
    }
    return sweeps;
  }

  static double Nmi(const Model& model) {
    return NormalizedMutualInformation(model.HardLabels(),
                                       full_->labels.raw());
  }

  static Dataset* full_;
  static Model* base_model_;
  static FitResult* cold_;
};

Dataset* RefitCostTest::full_ = nullptr;
Model* RefitCostTest::base_model_ = nullptr;
FitResult* RefitCostTest::cold_ = nullptr;

// The warm refit lands within 0.01 NMI of the cold fit at no more than
// half its EM sweeps. The cold count includes the best-of-seeds
// initialization, which a warm start never runs. This fixture reads NMI
// 0.8108 on both sides and 22 of 78 sweeps.
TEST_F(RefitCostTest, WarmRefitReachesColdNmiAtHalfTheSweeps) {
  auto warm = Engine::Refit(*full_, *base_model_, WarmOptions());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  const GenClusConfig cold_config = ColdConfig();
  const size_t cold_sweeps =
      TracedSweeps(cold_->report) +
      cold_config.num_init_seeds * cold_config.init_em_steps;
  const size_t warm_sweeps = TracedSweeps(warm.value().report);
  EXPECT_LE(2 * warm_sweeps, cold_sweeps)
      << warm_sweeps << " of " << cold_sweeps << " sweeps";
  const double cold_nmi = Nmi(cold_->model);
  const double warm_nmi = Nmi(warm.value().model);
  EXPECT_GE(warm_nmi, cold_nmi - 0.01)
      << "cold=" << cold_nmi << " warm=" << warm_nmi;
}

// The warm refit does not depend on the pool size.
TEST_F(RefitCostTest, FingerprintIsInvariantToThreadCount) {
  auto reference = Engine::Refit(*full_, *base_model_, WarmOptions());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const uint64_t expected = reference.value().model.Fingerprint();
  for (size_t threads : {1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    RefitOptions options = WarmOptions();
    options.config.num_threads = threads;
    auto refit = Engine::Refit(*full_, *base_model_, options);
    ASSERT_TRUE(refit.ok()) << refit.status().ToString();
    EXPECT_EQ(refit.value().model.Fingerprint(), expected);
  }
}

TEST_F(UpdateTest, ApplyUpdatesGrowsModelInPlace) {
  Dataset dataset = *base_;
  Model model = *base_model_;
  const size_t base_nodes = dataset.network.num_nodes();
  const Matrix before = model.theta;

  const NetworkDelta& delta = *remainder_;
  auto report = ApplyUpdates(&dataset, &model, {&delta, 1});
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(dataset.network.num_nodes(),
            full_->dataset.network.num_nodes());
  EXPECT_EQ(model.num_nodes(), dataset.network.num_nodes());
  EXPECT_EQ(report.value().deltas_applied, 1u);
  EXPECT_EQ(report.value().new_nodes, delta.nodes.size());
  EXPECT_GE(report.value().touched_nodes, delta.nodes.size());
  ExpectRowsOnSimplex(model.theta);
  EXPECT_TRUE(model.ValidateAgainst(dataset.network).ok());

  // Rows never touched by the delta (no new out-link, no new observation)
  // must be bitwise untouched.
  std::vector<bool> touched(base_nodes, false);
  for (const DeltaLink& link : delta.links) {
    if (link.src < base_nodes) touched[link.src] = true;
  }
  for (const DeltaObservation& obs : delta.observations) {
    if (obs.node < base_nodes) touched[obs.node] = true;
  }
  for (size_t v = 0; v < base_nodes; ++v) {
    if (touched[v]) continue;
    for (size_t k = 0; k < model.num_clusters(); ++k) {
      EXPECT_EQ(model.theta(v, k), before(v, k)) << "v=" << v;
    }
  }
}

TEST_F(UpdateTest, ApplyUpdatesIsBatchSplitInvariant) {
  // The same growth applied as one delta or replayed node-by-node (each
  // batch sliced from the full dataset) must produce identical model
  // state: the Jacobi rounds see the same final dataset either way, and
  // the touched set is the union.
  Dataset one_dataset = *base_;
  Model one_model = *base_model_;
  UpdateOptions options;
  options.refresh_components = true;
  auto one = ApplyUpdates(&one_dataset, &one_model, {remainder_, 1},
                          options);
  ASSERT_TRUE(one.ok()) << one.status().ToString();

  // Split the remainder into two cuts through an intermediate slice.
  const size_t base_nodes = base_->network.num_nodes();
  const size_t total = full_->dataset.network.num_nodes();
  const size_t mid = base_nodes + (total - base_nodes) / 2;
  NetworkDelta second;
  auto mid_dataset = SliceDatasetPrefix(full_->dataset, mid, &second);
  ASSERT_TRUE(mid_dataset.ok()) << mid_dataset.status().ToString();
  NetworkDelta first;
  auto mid_base = SliceDatasetPrefix(mid_dataset.value(), base_nodes,
                                     &first);
  ASSERT_TRUE(mid_base.ok()) << mid_base.status().ToString();

  Dataset two_dataset = *base_;
  Model two_model = *base_model_;
  std::vector<NetworkDelta> deltas = {std::move(first), std::move(second)};
  auto two = ApplyUpdates(&two_dataset, &two_model, deltas, options);
  ASSERT_TRUE(two.ok()) << two.status().ToString();

  ASSERT_EQ(one_model.num_nodes(), two_model.num_nodes());
  EXPECT_EQ(one_model.Fingerprint(), two_model.Fingerprint());
}

TEST_F(UpdateTest, OneRoundIsServedFoldInWithCategoricalObservations) {
  Dataset dataset = *base_;
  Model model = *base_model_;
  size_t survivors = 0;
  ExpectOneRoundIsServedFoldIn(&dataset, &model, *remainder_, &survivors);
  EXPECT_GT(survivors, 0u);
}

TEST_F(UpdateTest, ApplyUpdatesValidatesInputs) {
  Dataset dataset = *base_;
  Model model = *base_model_;
  const NetworkDelta& delta = *remainder_;

  UpdateOptions bad;
  bad.rounds = 0;
  EXPECT_EQ(ApplyUpdates(&dataset, &model, {&delta, 1}, bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Model/dataset node-count mismatch: streaming requires them in sync.
  Dataset grown = *base_;
  auto pre = ApplyNetworkDelta(grown, delta);
  ASSERT_TRUE(pre.ok());
  grown = std::move(pre).value();
  Model stale = *base_model_;
  EXPECT_EQ(ApplyUpdates(&grown, &stale, {&delta, 1}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(UpdateTest, ApplyUpdatesIsAllOrNothing) {
  // A batch whose second delta fails must leave the dataset and the model
  // exactly as they were, so the same pair keeps accepting valid deltas.
  // The batch is checked before anything changes, so every rejection is
  // pinned here. The dataset carries a numerical attribute beside the
  // model's text so the value check is reachable too.
  Dataset seed = *base_;
  Attribute numeric = Attribute::Numerical("x", seed.network.num_nodes());
  ASSERT_TRUE(numeric.AddValue(0, 1.5).ok());
  seed.attributes.push_back(std::move(numeric));
  const AttributeId text = 0;
  const AttributeId numeric_id = 1;
  const uint64_t fingerprint = base_model_->Fingerprint();
  // After the valid delta the batch addresses the full network's ids.
  const NodeId grown = static_cast<NodeId>(full_->dataset.network.num_nodes());
  const NodeId doc = full_->docs[0];
  const NodeId other = full_->docs[1];
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  auto node_delta = [](ObjectTypeId type) {
    NetworkDelta d;
    d.nodes.push_back({type, "n"});
    return d;
  };
  auto link_delta = [](NodeId src, NodeId dst, LinkTypeId type,
                       double weight) {
    NetworkDelta d;
    d.links.push_back({src, dst, type, weight});
    return d;
  };
  auto observation_delta = [](AttributeId attribute, NodeId node,
                              uint32_t term, double count, double value) {
    NetworkDelta d;
    d.observations.push_back({attribute, node, term, count, value});
    return d;
  };
  NetworkDelta mislabeled = node_delta(full_->doc_type);
  mislabeled.node_labels = {0, 1};  // two labels, one node
  // Each count passes alone; their sum, which the new node's fold-in
  // query would serve, does not.
  NetworkDelta doubled = node_delta(full_->doc_type);
  doubled.observations.assign(
      2, {text, grown, 0, kMaxObservationMagnitude, 0.0});
  const size_t vocab = seed.attributes[text].vocab_size();

  const std::vector<std::pair<const char*, NetworkDelta>> cases = {
      {"unknown object type", node_delta(99)},
      {"unknown link type", link_delta(doc, other, 99, 1.0)},
      {"endpoint types contradict the schema",
       link_delta(doc, other, full_->doc_tag, 1.0)},
      {"weight 0", link_delta(doc, other, full_->doc_doc, 0.0)},
      {"weight NaN", link_delta(doc, other, full_->doc_doc, nan)},
      {"weight inf", link_delta(doc, other, full_->doc_doc, inf)},
      {"link endpoint past the grown node count",
       link_delta(doc, grown, full_->doc_doc, 1.0)},
      {"link endpoint far past the grown node count",
       link_delta(0, grown + 100, 0, 1.0)},
      {"unknown attribute id", observation_delta(2, doc, 0, 1.0, 0.0)},
      {"observation node past the grown node count",
       observation_delta(text, grown, 0, 1.0, 0.0)},
      {"term >= vocabulary size",
       observation_delta(text, doc, static_cast<uint32_t>(vocab), 1.0,
                         0.0)},
      {"count 0", observation_delta(text, doc, 0, 0.0, 0.0)},
      {"count NaN", observation_delta(text, doc, 0, nan, 0.0)},
      {"count at the bound twice on one node and term", doubled},
      {"numerical value NaN",
       observation_delta(numeric_id, doc, 0, 1.0, nan)},
      {"numerical value inf",
       observation_delta(numeric_id, doc, 0, 1.0, inf)},
      {"label count != node count", mislabeled},
  };
  Dataset dataset = seed;
  Model model = *base_model_;
  for (const auto& [name, broken] : cases) {
    SCOPED_TRACE(name);
    const std::vector<NetworkDelta> deltas = {*remainder_, broken};
    auto failed = ApplyUpdates(&dataset, &model, deltas);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument)
        << failed.status().ToString();
    testing::ExpectDatasetsEqual(seed, dataset);
    EXPECT_EQ(model.Fingerprint(), fingerprint);
  }

  auto applied = ApplyUpdates(&dataset, &model, {remainder_, 1});
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(dataset.network.num_nodes(),
            full_->dataset.network.num_nodes());
  EXPECT_EQ(model.num_nodes(), dataset.network.num_nodes());
}

// ---------------------------------------------------------------------
// The component refresh resumes from the M-step sums the model kept.

// One delta per node of `remainder` (as cut by SliceDatasetPrefix at
// `base_nodes`): a link or observation goes with its newest endpoint.
std::vector<NetworkDelta> OneNodeDeltas(const NetworkDelta& remainder,
                                        size_t base_nodes) {
  std::vector<NetworkDelta> out(remainder.nodes.size());
  for (size_t i = 0; i < remainder.nodes.size(); ++i) {
    out[i].nodes.push_back(remainder.nodes[i]);
  }
  for (const DeltaLink& link : remainder.links) {
    out[std::max(link.src, link.dst) - base_nodes].links.push_back(link);
  }
  for (const DeltaObservation& obs : remainder.observations) {
    out[obs.node - base_nodes].observations.push_back(obs);
  }
  return out;
}

// Expects `model`'s components to be bit for bit one cold
// EstimateComponents pass over every observation of `dataset` with the
// model's Theta, from `carried` (the components the call started from:
// a Gaussian of an empty cluster keeps its parameters).
void ExpectColdPassComponents(const Dataset& dataset, const Model& model,
                              std::vector<AttributeComponents> carried) {
  std::vector<const Attribute*> attrs;
  for (const ModelAttributeInfo& info : model.attributes) {
    attrs.push_back(&dataset.attributes[dataset.FindAttribute(info.name)]);
  }
  GenClusConfig config;
  config.num_clusters = model.num_clusters();
  EmOptimizer(&dataset.network, attrs, &config, nullptr)
      .EstimateComponents(model.theta, &carried);
  ASSERT_EQ(carried.size(), model.components.size());
  for (size_t a = 0; a < carried.size(); ++a) {
    SCOPED_TRACE(model.attributes[a].name);
    if (carried[a].kind() == AttributeKind::kCategorical) {
      EXPECT_EQ(carried[a].beta().data(), model.components[a].beta().data());
      continue;
    }
    for (ClusterId k = 0; k < model.num_clusters(); ++k) {
      EXPECT_EQ(carried[a].gaussian(k).mean(),
                model.components[a].gaussian(k).mean());
      EXPECT_EQ(carried[a].gaussian(k).variance(),
                model.components[a].gaussian(k).variance());
    }
  }
}

// Applies `delta` with the default options, expects the refresh to have
// read `expected_rows` rows (0 = every row of the grown dataset) and
// its components to equal a cold pass.
void ApplyAndExpectRefresh(Dataset* dataset, Model* model,
                           const NetworkDelta& delta, size_t expected_rows) {
  const std::vector<AttributeComponents> carried = model->components;
  auto report = ApplyUpdates(dataset, model, {&delta, 1});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const size_t n = dataset->network.num_nodes();
  EXPECT_EQ(report.value().refreshed_rows,
            expected_rows == 0 ? n : expected_rows);
  ExpectColdPassComponents(*dataset, *model, carried);
}

// A generated ACP network with its papers last, as the repository
// benchmark slices it: the last 12 papers arrive one per delta. A new
// paper's links re-solve old authors and conferences, which carry no
// text, so every refresh after the first can resume.
class UpdateRefreshTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DblpConfig config;
    config.num_authors = 60;
    config.num_papers = 150;
    config.num_conferences = 4;
    config.seed = 931;
    auto corpus = GenerateDblpCorpus(config);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    auto acp = BuildAcpNetwork(corpus.value(), config);
    ASSERT_TRUE(acp.ok()) << acp.status().ToString();
    const Dataset& full = acp.value().dataset;
    const size_t base_nodes = full.network.num_nodes() - 12;
    NetworkDelta remainder;
    auto base = SliceDatasetPrefix(full, base_nodes, &remainder);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    base_ = new Dataset(std::move(base).value());
    deltas_ = new std::vector<NetworkDelta>(
        OneNodeDeltas(remainder, base_nodes));
    paper_type_ = acp.value().paper_type;
    old_paper_ = acp.value().paper_nodes.front();

    FitOptions options;
    options.attributes = {"text"};
    options.config.num_clusters = 4;
    options.config.outer_iterations = 2;
    options.config.em_iterations = 10;
    options.config.num_init_seeds = 1;
    options.config.num_threads = 1;
    options.config.seed = 932;
    auto fit = Engine::Fit(*base_, options);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    model_ = new Model(std::move(fit).value().model);
  }

  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete deltas_;
    deltas_ = nullptr;
    delete base_;
    base_ = nullptr;
  }

  // Applies the first two deltas: a full pass, then a resumed one.
  static void Warm(Dataset* dataset, Model* model) {
    ApplyAndExpectRefresh(dataset, model, (*deltas_)[0], 0);
    ApplyAndExpectRefresh(dataset, model, (*deltas_)[1], 1);
  }

  static Dataset* base_;
  static std::vector<NetworkDelta>* deltas_;
  static Model* model_;
  static ObjectTypeId paper_type_;
  static NodeId old_paper_;
};

Dataset* UpdateRefreshTest::base_ = nullptr;
std::vector<NetworkDelta>* UpdateRefreshTest::deltas_ = nullptr;
Model* UpdateRefreshTest::model_ = nullptr;
ObjectTypeId UpdateRefreshTest::paper_type_ = kInvalidObjectType;
NodeId UpdateRefreshTest::old_paper_ = kInvalidNode;

TEST_F(UpdateRefreshTest, ResumesOnAppendedPapers) {
  Dataset dataset = *base_;
  Model model = *model_;
  ASSERT_TRUE(dataset.attributes[0].HasObservations(old_paper_));
  for (size_t i = 0; i < deltas_->size(); ++i) {
    SCOPED_TRACE(i);
    ApplyAndExpectRefresh(&dataset, &model, (*deltas_)[i], i == 0 ? 0 : 1);
  }
}

TEST_F(UpdateRefreshTest, FallsBackAfterThetaEdit) {
  Dataset dataset = *base_;
  Model model = *model_;
  Warm(&dataset, &model);
  // Reverse an observed row: still on the simplex, other bits.
  double* row = model.theta.Row(old_paper_);
  std::reverse(row, row + model.num_clusters());
  ASSERT_TRUE(model.Validate().ok());
  ApplyAndExpectRefresh(&dataset, &model, (*deltas_)[2], 0);
}

TEST_F(UpdateRefreshTest, FallsBackAfterAttributeEdit) {
  Dataset dataset = *base_;
  Model model = *model_;
  Warm(&dataset, &model);
  ASSERT_TRUE(dataset.attributes[0].AddTermCount(old_paper_, 3, 2.0).ok());
  ApplyAndExpectRefresh(&dataset, &model, (*deltas_)[2], 0);
}

TEST_F(UpdateRefreshTest, FallsBackOnAnotherDatasetOfTheSameSize) {
  Dataset dataset = *base_;
  Model model = *model_;
  Warm(&dataset, &model);
  // Both pairs grow by one paper, with different text: the model's sums
  // read the first pair's. The copied model starts without sums, so its
  // call runs the full pass.
  Dataset other = dataset;
  Model other_model = model;
  NetworkDelta shifted = (*deltas_)[2];
  const uint32_t vocab =
      static_cast<uint32_t>(dataset.attributes[0].vocab_size());
  for (DeltaObservation& obs : shifted.observations) {
    obs.term = (obs.term + 1) % vocab;
  }
  ApplyAndExpectRefresh(&dataset, &model, (*deltas_)[2], 1);
  ApplyAndExpectRefresh(&other, &other_model, shifted, 0);
  ApplyAndExpectRefresh(&other, &model, (*deltas_)[3], 0);
}

TEST_F(UpdateRefreshTest, CopiesStartWithoutTheSumsMovesKeepThem) {
  Dataset dataset = *base_;
  Model model = *model_;
  Warm(&dataset, &model);
  // Each dataset copy carries its attributes' stamps, so the original's
  // sums would fit it. A copy of the model runs one full pass, then
  // resumes on its own sums.
  Dataset copied_dataset = dataset;
  Model copy = model;
  ApplyAndExpectRefresh(&copied_dataset, &copy, (*deltas_)[2], 0);
  ApplyAndExpectRefresh(&copied_dataset, &copy, (*deltas_)[3], 1);
  // Copy assignment takes none of the source's sums either.
  Dataset assigned_dataset = dataset;
  Model assigned = *model_;
  assigned = model;
  ApplyAndExpectRefresh(&assigned_dataset, &assigned, (*deltas_)[2], 0);
  // The original kept its sums, and a move carries them.
  Model moved = std::move(model);
  ApplyAndExpectRefresh(&dataset, &moved, (*deltas_)[2], 1);
}

TEST_F(UpdateRefreshTest, FallsBackAfterACallWithoutRefresh) {
  Dataset dataset = *base_;
  Model model = *model_;
  Warm(&dataset, &model);
  // Late text on an old paper, folded in without a refresh: the node
  // count stays, the sums go stale.
  NetworkDelta late;
  late.observations.push_back({0, old_paper_, 5, 1.0, 0.0});
  UpdateOptions carry;
  carry.refresh_components = false;
  auto report = ApplyUpdates(&dataset, &model, {&late, 1}, carry);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().refreshed_rows, 0u);
  ApplyAndExpectRefresh(&dataset, &model, (*deltas_)[2], 0);
}

TEST_F(UpdateRefreshTest, FallsBackAfterABinaryRoundTrip) {
  Dataset dataset = *base_;
  Model model = *model_;
  Warm(&dataset, &model);
  const std::string path =
      ::testing::TempDir() + "/update_refresh_round_trip.gcm";
  ASSERT_TRUE(SaveModelBinary(model, path).ok());
  auto loaded = LoadModelBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  model = std::move(loaded).value();
  std::remove(path.c_str());
  ApplyAndExpectRefresh(&dataset, &model, (*deltas_)[2], 0);
}

TEST_F(UpdateRefreshTest, ObservedRowResolveKeepsNoSums) {
  Dataset dataset = *base_;
  Model model = *model_;
  Warm(&dataset, &model);
  // Late text on an old paper re-solves an observed row: a full pass
  // that keeps no sums, so the next call runs one too and keeps them.
  NetworkDelta late = (*deltas_)[2];
  late.observations.push_back({0, old_paper_, 5, 1.0, 0.0});
  ApplyAndExpectRefresh(&dataset, &model, late, 0);
  ApplyAndExpectRefresh(&dataset, &model, (*deltas_)[3], 0);
  ApplyAndExpectRefresh(&dataset, &model, (*deltas_)[4], 1);
}

TEST_F(UpdateRefreshTest, RefusedDeltaKeepsTheSums) {
  Dataset dataset = *base_;
  Model model = *model_;
  Warm(&dataset, &model);
  NetworkDelta refused = (*deltas_)[2];
  refused.observations.push_back(
      {0, old_paper_, 0, kMaxObservationMagnitude * 10, 0.0});
  EXPECT_EQ(ApplyUpdates(&dataset, &model, {&refused, 1}).status().code(),
            StatusCode::kInvalidArgument);
  ApplyAndExpectRefresh(&dataset, &model, (*deltas_)[2], 1);
}

TEST(UpdateRefreshWeatherTest, FullPassWhenObservedRowsAreResolved) {
  // Every delta brings a sensor and a late reading on an old sensor, so
  // each call re-solves a row that carries readings: no call can resume
  // (or keeps sums), and the Gaussians still equal a cold pass.
  WeatherConfig config = WeatherConfig::Setting1();
  config.num_temperature_sensors = 80;
  config.num_precipitation_sensors = 40;
  config.seed = 941;
  auto weather = GenerateWeatherNetwork(config);
  ASSERT_TRUE(weather.ok()) << weather.status().ToString();
  const Dataset& full = weather.value().dataset;
  const size_t base_nodes = full.network.num_nodes() - 8;
  NetworkDelta remainder;
  auto base = SliceDatasetPrefix(full, base_nodes, &remainder);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  Dataset dataset = std::move(base).value();

  FitOptions options;
  options.attributes = {"temperature", "precipitation"};
  options.config.num_clusters = 4;
  options.config.outer_iterations = 2;
  options.config.em_iterations = 10;
  options.config.num_init_seeds = 1;
  options.config.num_threads = 1;
  options.config.seed = 942;
  auto fit = Engine::Fit(dataset, options);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  Model model = std::move(fit).value().model;

  const AttributeId temperature = dataset.FindAttribute("temperature");
  NodeId sensor = 0;
  while (!dataset.attributes[temperature].HasObservations(sensor)) ++sensor;
  std::vector<NetworkDelta> deltas = OneNodeDeltas(remainder, base_nodes);
  for (size_t i = 0; i < deltas.size(); ++i) {
    SCOPED_TRACE(i);
    deltas[i].observations.push_back(
        {temperature, sensor, 0, 1.0, 10.0 + static_cast<double>(i)});
    ApplyAndExpectRefresh(&dataset, &model, deltas[i], 0);
  }
}

}  // namespace
}  // namespace genclus
