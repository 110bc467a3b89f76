// End-to-end training through the Engine::Fit surface: recovery of planted
// structure, strength learning behaviour, determinism, tracing, progress
// observation, cancellation, and input validation.
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "eval/nmi.h"
#include "prob/simplex.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::MakeTwoCommunityNetwork;

FitOptions SmallOptions() {
  FitOptions options;
  options.attributes = {"text"};
  options.config = testing::PlantedFixtureConfig(123);
  return options;
}

TEST(EngineFitTest, RecoversPlantedCommunitiesWithFullText) {
  auto fixture = MakeTwoCommunityNetwork(8, 1.0, 51);
  auto fit = Engine::Fit(fixture.dataset, SmallOptions());
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  const double nmi = NormalizedMutualInformation(
      fit->model.HardLabels(), fixture.dataset.labels.raw());
  EXPECT_GT(nmi, 0.9);
}

TEST(EngineFitTest, RecoversPlantedCommunitiesWithSparseText) {
  auto fixture = MakeTwoCommunityNetwork(10, 0.3, 53);
  auto fit = Engine::Fit(fixture.dataset, SmallOptions());
  ASSERT_TRUE(fit.ok());
  const double nmi = NormalizedMutualInformation(
      fit->model.HardLabels(), fixture.dataset.labels.raw());
  EXPECT_GT(nmi, 0.8);
}

TEST(EngineFitTest, ThetaRowsOnSimplexAndGammaNonNegative) {
  auto fixture = MakeTwoCommunityNetwork(6, 0.8, 55);
  auto fit = Engine::Fit(fixture.dataset, SmallOptions());
  ASSERT_TRUE(fit.ok());
  const Model& model = fit->model;
  for (size_t v = 0; v < model.theta.rows(); ++v) {
    EXPECT_TRUE(IsOnSimplex(model.theta.RowVector(v), 1e-9));
  }
  ASSERT_EQ(model.gamma.size(), 3u);
  for (double g : model.gamma) EXPECT_GE(g, 0.0);
  // The model passes its own validation and matches the training network.
  EXPECT_TRUE(model.Validate().ok());
  EXPECT_TRUE(model.ValidateAgainst(fixture.dataset.network).ok());
}

TEST(EngineFitTest, DeterministicGivenSeed) {
  auto fixture = MakeTwoCommunityNetwork(5, 1.0, 57);
  auto a = Engine::Fit(fixture.dataset, SmallOptions());
  auto b = Engine::Fit(fixture.dataset, SmallOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(a->model.theta, b->model.theta), 0.0);
  for (size_t r = 0; r < a->model.gamma.size(); ++r) {
    EXPECT_DOUBLE_EQ(a->model.gamma[r], b->model.gamma[r]);
  }
}

TEST(EngineFitTest, DifferentSeedsBothRecover) {
  auto fixture = MakeTwoCommunityNetwork(8, 1.0, 59);
  for (uint64_t seed : {1ULL, 7ULL, 1234ULL}) {
    FitOptions options = SmallOptions();
    options.config.seed = seed;
    auto fit = Engine::Fit(fixture.dataset, options);
    ASSERT_TRUE(fit.ok());
    const double nmi = NormalizedMutualInformation(
        fit->model.HardLabels(), fixture.dataset.labels.raw());
    EXPECT_GT(nmi, 0.9) << "seed " << seed;
  }
}

TEST(EngineFitTest, ReportRecordsEveryOuterIteration) {
  auto fixture = MakeTwoCommunityNetwork(4, 1.0, 61);
  FitOptions options = SmallOptions();
  options.config.outer_iterations = 4;
  options.config.outer_tolerance = 0.0;  // never early-stop
  auto fit = Engine::Fit(fixture.dataset, options);
  ASSERT_TRUE(fit.ok());
  const FitReport& report = fit->report;
  // Initial record + 4 iterations.
  EXPECT_EQ(report.trace.size(), 5u);
  EXPECT_EQ(report.outer_iterations, 4u);
  EXPECT_EQ(report.trace[0].iteration, 0u);
  EXPECT_FALSE(report.converged);
  EXPECT_GT(report.total_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.objective, fit->model.objective);
  // The initial gamma is all ones.
  for (double g : report.trace[0].gamma) EXPECT_DOUBLE_EQ(g, 1.0);
  for (size_t i = 1; i < report.trace.size(); ++i) {
    EXPECT_EQ(report.trace[i].iteration, i);
    EXPECT_GT(report.trace[i].em_iterations, 0u);
    EXPECT_TRUE(std::isfinite(report.trace[i].em_objective));
  }
}

TEST(EngineFitTest, ProgressObserverSeesEveryIteration) {
  auto fixture = MakeTwoCommunityNetwork(4, 1.0, 63);
  class CountingObserver : public ProgressObserver {
   public:
    explicit CountingObserver(size_t num_nodes) : num_nodes_(num_nodes) {}
    void OnOuterIteration(const OuterIterationRecord& record,
                          const Matrix& theta) override {
      ++calls;
      EXPECT_EQ(theta.rows(), num_nodes_);
      EXPECT_GE(record.iteration, 1u);
    }
    size_t calls = 0;

   private:
    size_t num_nodes_;
  };
  CountingObserver observer(fixture.dataset.network.num_nodes());
  FitOptions options = SmallOptions();
  options.config.outer_iterations = 3;
  options.config.outer_tolerance = 0.0;
  options.observer = &observer;
  auto fit = Engine::Fit(fixture.dataset, options);
  ASSERT_TRUE(fit.ok());
  EXPECT_EQ(observer.calls, 3u);
}

TEST(EngineFitTest, CancellationStopsTraining) {
  auto fixture = MakeTwoCommunityNetwork(4, 1.0, 63);
  CancellationToken token;

  // Pre-cancelled: no outer iteration runs.
  token.RequestCancellation();
  FitOptions options = SmallOptions();
  options.cancellation = &token;
  auto fit = Engine::Fit(fixture.dataset, options);
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kCancelled);
}

TEST(EngineFitTest, CancellationFromObserverStopsAfterCurrentIteration) {
  auto fixture = MakeTwoCommunityNetwork(4, 1.0, 63);
  CancellationToken token;
  // Cancels from inside the progress stream — the supported way to stop a
  // run after inspecting an iteration.
  class CancellingObserver : public ProgressObserver {
   public:
    explicit CancellingObserver(CancellationToken* token) : token_(token) {}
    void OnOuterIteration(const OuterIterationRecord&,
                          const Matrix&) override {
      ++calls;
      token_->RequestCancellation();
    }
    size_t calls = 0;

   private:
    CancellationToken* token_;
  };
  CancellingObserver observer(&token);
  FitOptions options = SmallOptions();
  options.config.outer_iterations = 5;
  options.config.outer_tolerance = 0.0;
  options.observer = &observer;
  options.cancellation = &token;
  auto fit = Engine::Fit(fixture.dataset, options);
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(observer.calls, 1u);
}

TEST(EngineFitTest, FixedGammaAblationKeepsInitialStrengths) {
  auto fixture = MakeTwoCommunityNetwork(4, 1.0, 65);
  FitOptions options = SmallOptions();
  options.config.learn_strengths = false;
  auto fit = Engine::Fit(fixture.dataset, options);
  ASSERT_TRUE(fit.ok());
  for (double g : fit->model.gamma) EXPECT_DOUBLE_EQ(g, 1.0);
}

TEST(EngineFitTest, CustomInitialGammaRespected) {
  auto fixture = MakeTwoCommunityNetwork(4, 1.0, 67);
  FitOptions options = SmallOptions();
  options.config.learn_strengths = false;
  options.config.initial_gamma = {2.0, 0.5, 1.5};
  auto fit = Engine::Fit(fixture.dataset, options);
  ASSERT_TRUE(fit.ok());
  EXPECT_DOUBLE_EQ(fit->model.gamma[0], 2.0);
  EXPECT_DOUBLE_EQ(fit->model.gamma[1], 0.5);
  EXPECT_DOUBLE_EQ(fit->model.gamma[2], 1.5);
}

TEST(EngineFitTest, RejectsBadInputs) {
  auto fixture = MakeTwoCommunityNetwork(4, 1.0, 69);

  // Unknown attribute name.
  FitOptions options = SmallOptions();
  options.attributes = {"nope"};
  auto missing = Engine::Fit(fixture.dataset, options);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // num_clusters < 2.
  options = SmallOptions();
  options.config.num_clusters = 1;
  auto bad_k = Engine::Fit(fixture.dataset, options);
  EXPECT_FALSE(bad_k.ok());

  // initial_gamma with the wrong arity.
  options = SmallOptions();
  options.config.initial_gamma = {1.0};
  auto bad_gamma = Engine::Fit(fixture.dataset, options);
  EXPECT_FALSE(bad_gamma.ok());
}

TEST(EngineFitTest, PureLinkClusteringWithoutAttributes) {
  // No attribute specified: clustering driven purely by links. The two
  // communities are connected components (docs + their tag), so links
  // alone can separate them, though cluster identities are symmetric —
  // check NMI rather than exact labels.
  auto fixture = MakeTwoCommunityNetwork(8, 1.0, 71);
  FitOptions options = SmallOptions();
  options.attributes = {};
  auto fit = Engine::Fit(fixture.dataset, options);
  ASSERT_TRUE(fit.ok());
  const double nmi = NormalizedMutualInformation(
      fit->model.HardLabels(), fixture.dataset.labels.raw());
  // Link-only clustering of two disconnected communities can still settle
  // in a symmetric state; require it to be no worse than random and on the
  // simplex everywhere.
  EXPECT_GE(nmi, 0.0);
  for (size_t v = 0; v < fit->model.theta.rows(); ++v) {
    EXPECT_TRUE(IsOnSimplex(fit->model.theta.RowVector(v), 1e-9));
  }
}

TEST(EngineFitTest, MultithreadedMatchesSingleThreaded) {
  auto fixture = MakeTwoCommunityNetwork(6, 1.0, 73);
  FitOptions options = SmallOptions();
  options.config.num_threads = 1;
  auto serial = Engine::Fit(fixture.dataset, options);
  options.config.num_threads = 4;
  auto parallel = Engine::Fit(fixture.dataset, options);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_LT(Matrix::MaxAbsDiff(serial->model.theta, parallel->model.theta),
            1e-9);
}

TEST(EngineFitTest, HardLabelsMatchArgmax) {
  auto fixture = MakeTwoCommunityNetwork(4, 1.0, 75);
  auto fit = Engine::Fit(fixture.dataset, SmallOptions());
  ASSERT_TRUE(fit.ok());
  auto labels = fit->model.HardLabels();
  ASSERT_EQ(labels.size(), fit->model.theta.rows());
  for (size_t v = 0; v < labels.size(); ++v) {
    EXPECT_EQ(labels[v], ArgMax(fit->model.theta.RowVector(v)));
  }
}

TEST(EngineFitTest, LearnsHigherStrengthForInformativeRelation) {
  // doc_doc connects same-community docs only (high consistency);
  // doc_tag/tag_doc connect docs to their community tag, equally
  // consistent. All three should earn positive strengths; the intra-doc
  // relation should not collapse to zero.
  auto fixture = MakeTwoCommunityNetwork(8, 1.0, 77);
  FitOptions options = SmallOptions();
  options.config.outer_iterations = 6;
  auto fit = Engine::Fit(fixture.dataset, options);
  ASSERT_TRUE(fit.ok());
  EXPECT_GT(fit->model.gamma[fixture.doc_doc], 0.0);
}

TEST(EngineFitTest, ModelCarriesSchemaAndAttributeMetadata) {
  auto fixture = MakeTwoCommunityNetwork(4, 1.0, 79);
  auto fit = Engine::Fit(fixture.dataset, SmallOptions());
  ASSERT_TRUE(fit.ok());
  const Model& model = fit->model;
  ASSERT_EQ(model.link_types.size(), 3u);
  const Schema& schema = fixture.dataset.network.schema();
  for (LinkTypeId r = 0; r < schema.num_link_types(); ++r) {
    EXPECT_EQ(model.link_types[r], schema.link_type(r).name);
  }
  ASSERT_EQ(model.attributes.size(), 1u);
  EXPECT_EQ(model.attributes[0].name, "text");
  EXPECT_EQ(model.attributes[0].kind, AttributeKind::kCategorical);
  EXPECT_EQ(model.attributes[0].vocab_size, 4u);
}

}  // namespace
}  // namespace genclus
