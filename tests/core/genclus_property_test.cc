// Parameterized property sweeps over the full GenClus pipeline: for every
// combination of (cluster count, attribute completeness, network size),
// the invariants of §2.2 must hold — simplex memberships for every object,
// non-negative strengths, deterministic replay — and the planted structure
// must be recovered when the signal is present.
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "core/strength.h"
#include "eval/nmi.h"
#include "prob/simplex.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::MakeTwoCommunityNetwork;

struct SweepCase {
  size_t docs_per_side;
  double text_fraction;
  size_t num_clusters;
  uint64_t seed;
};

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "docs=" << c.docs_per_side << " text=" << c.text_fraction
      << " K=" << c.num_clusters << " seed=" << c.seed;
}

// One Engine::Fit over the fixture's text attribute.
Result<FitResult> FitText(const Dataset& dataset,
                          const GenClusConfig& config) {
  FitOptions options;
  options.attributes = {"text"};
  options.config = config;
  return Engine::Fit(dataset, options);
}

class GenClusSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(GenClusSweep, InvariantsHold) {
  const SweepCase c = GetParam();
  auto fixture = MakeTwoCommunityNetwork(c.docs_per_side, c.text_fraction,
                                         c.seed);
  GenClusConfig config;
  config.num_clusters = c.num_clusters;
  config.outer_iterations = 4;
  config.em_iterations = 30;
  config.num_init_seeds = 2;
  config.seed = c.seed * 31 + 1;
  auto result = FitText(fixture.dataset, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Invariant 1: every membership row on the simplex.
  for (size_t v = 0; v < result->model.theta.rows(); ++v) {
    EXPECT_TRUE(IsOnSimplex(result->model.theta.RowVector(v), 1e-9))
        << "node " << v;
  }
  // Invariant 2: strengths non-negative and finite.
  for (double g : result->model.gamma) {
    EXPECT_GE(g, 0.0);
    EXPECT_TRUE(std::isfinite(g));
  }
  // Invariant 3: objective finite.
  EXPECT_TRUE(std::isfinite(result->model.objective));
  // Invariant 4: trace covers every iteration run.
  EXPECT_GE(result->report.trace.size(), 2u);

  // Invariant 5: bit-identical replay.
  auto replay = FitText(fixture.dataset, config);
  ASSERT_TRUE(replay.ok());
  EXPECT_DOUBLE_EQ(
      Matrix::MaxAbsDiff(result->model.theta, replay->model.theta), 0.0);
}

TEST_P(GenClusSweep, RecoversStructureWithFullText) {
  const SweepCase c = GetParam();
  if (c.text_fraction < 1.0 || c.num_clusters != 2) {
    GTEST_SKIP() << "recovery check only for the identifiable cases";
  }
  auto fixture = MakeTwoCommunityNetwork(c.docs_per_side, 1.0, c.seed);
  GenClusConfig config;
  config.num_clusters = 2;
  config.outer_iterations = 4;
  config.em_iterations = 40;
  config.num_init_seeds = 3;
  config.seed = c.seed * 13 + 5;
  auto result = FitText(fixture.dataset, config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(NormalizedMutualInformation(result->model.HardLabels(),
                                        fixture.dataset.labels.raw()),
            0.85);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GenClusSweep,
    ::testing::Values(SweepCase{4, 1.0, 2, 1}, SweepCase{4, 0.5, 2, 2},
                      SweepCase{4, 0.0, 2, 3}, SweepCase{8, 1.0, 2, 4},
                      SweepCase{8, 0.3, 2, 5}, SweepCase{8, 1.0, 3, 6},
                      SweepCase{6, 0.7, 4, 7}, SweepCase{12, 1.0, 2, 8}));

// Gradient checks across prior widths and membership concentrations: the
// analytic gradient of g2' must match finite differences everywhere.
struct GradientCase {
  double sigma;
  double concentration_eps;
  uint64_t seed;
};

void PrintTo(const GradientCase& c, std::ostream* os) {
  *os << "sigma=" << c.sigma << " eps=" << c.concentration_eps
      << " seed=" << c.seed;
}

class StrengthGradientSweep
    : public ::testing::TestWithParam<GradientCase> {};

TEST_P(StrengthGradientSweep, AnalyticMatchesNumeric) {
  const GradientCase c = GetParam();
  auto fixture = MakeTwoCommunityNetwork(4, 1.0, c.seed);
  std::vector<uint32_t> labels(fixture.dataset.network.num_nodes());
  for (NodeId v = 0; v < labels.size(); ++v) {
    labels[v] = fixture.dataset.labels.Get(v);
  }
  Matrix theta = testing::ConcentratedTheta(labels, 2,
                                            c.concentration_eps);
  GenClusConfig config;
  config.num_clusters = 2;
  config.gamma_prior_sigma = c.sigma;
  StrengthLearner learner(&fixture.dataset.network, &theta, &config);

  Rng rng(c.seed);
  std::vector<double> gamma(3);
  for (double& g : gamma) g = rng.Uniform(0.1, 2.0);
  const auto grad = learner.Gradient(gamma);
  const double h = 1e-6;
  for (size_t r = 0; r < gamma.size(); ++r) {
    std::vector<double> up = gamma;
    std::vector<double> down = gamma;
    up[r] += h;
    down[r] -= h;
    const double numeric =
        (learner.Objective(up) - learner.Objective(down)) / (2.0 * h);
    EXPECT_NEAR(grad[r], numeric, 1e-4 * (1.0 + std::fabs(numeric)))
        << "relation " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrengthGradientSweep,
    ::testing::Values(GradientCase{0.1, 0.1, 1}, GradientCase{0.5, 0.1, 2},
                      GradientCase{2.0, 0.1, 3}, GradientCase{0.5, 0.4, 4},
                      GradientCase{0.5, 0.01, 5},
                      GradientCase{1.0, 0.25, 6}));

}  // namespace
}  // namespace genclus
