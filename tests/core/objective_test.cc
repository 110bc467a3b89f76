// Objective evaluation: mixture log-likelihoods (Eqs. 3-5) and the g1
// decomposition (Eq. 9).
#include "core/objective.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/feature.h"
#include "prob/special_functions.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

TEST(ObjectiveTest, CategoricalLikelihoodManualCheck) {
  // One node, two clusters, vocab 2; theta = (0.5, 0.5),
  // beta = [[1, 0], [0, 1]]; observation: term 0 twice.
  // p(term 0) = 0.5 * 1 + 0.5 * 0 = 0.5 => LL = 2 * log 0.5.
  Attribute text = Attribute::Categorical("text", 2, 1);
  (void)text.AddTermCount(0, 0, 2.0);
  auto comp = AttributeComponents::CategoricalUniform(2, 2);
  (*comp.mutable_beta())(0, 0) = 1.0;
  (*comp.mutable_beta())(0, 1) = 0.0;
  (*comp.mutable_beta())(1, 0) = 0.0;
  (*comp.mutable_beta())(1, 1) = 1.0;
  Matrix theta(1, 2, 0.5);
  EXPECT_NEAR(AttributeLogLikelihood(text, comp, theta), 2.0 * std::log(0.5),
              1e-12);
}

TEST(ObjectiveTest, GaussianLikelihoodManualCheck) {
  // One node, one observation at x = 0; two unit Gaussians at 0 and 10;
  // theta = (1, 0) => LL = log N(0 | 0, 1).
  Attribute values = Attribute::Numerical("x", 1);
  (void)values.AddValue(0, 0.0);
  std::vector<GaussianDistribution> gaussians = {
      GaussianDistribution(0.0, 1.0), GaussianDistribution(10.0, 1.0)};
  auto comp = AttributeComponents::Numerical(std::move(gaussians));
  Matrix theta(1, 2);
  theta(0, 0) = 1.0;
  EXPECT_NEAR(AttributeLogLikelihood(values, comp, theta),
              -0.5 * std::log(2.0 * M_PI), 1e-9);
}

// The reference AttributeLogLikelihood is checked against for a
// numerical attribute: per observation, log theta_vk (clamped at 1e-300)
// plus AttributeComponents::LogPdf, through LogSumExp.
double PerObservationLogLikelihood(const Attribute& attribute,
                                   const AttributeComponents& components,
                                   const Matrix& theta) {
  const size_t k = theta.cols();
  std::vector<double> logs(k);
  double total = 0.0;
  for (NodeId v = 0; v < attribute.num_nodes(); ++v) {
    for (double x : attribute.Values(v)) {
      for (size_t c = 0; c < k; ++c) {
        const double t = theta(v, c) > 0.0 ? theta(v, c) : 1e-300;
        logs[c] =
            std::log(t) + components.LogPdf(static_cast<ClusterId>(c), x);
      }
      total += LogSumExp(logs);
    }
  }
  return total;
}

TEST(ObjectiveTest, GaussianLikelihoodBitwiseEqualToPerObservationLoop) {
  // AttributeLogLikelihood hoists each Gaussian's normalizer and log
  // theta_vk; the result must be bit for bit the per-observation
  // LogPdf + LogSumExp loop. Single-observation calls keep a one-ulp slip
  // in any term from vanishing into a larger sum; the multi-node call
  // adds zero theta entries and nodes without observations.
  for (size_t k : {2u, 3u, 5u}) {
    Rng rng(17 + k);
    std::vector<GaussianDistribution> gaussians;
    for (size_t c = 0; c < k; ++c) {
      gaussians.emplace_back(3.0 * c + rng.Uniform(-0.5, 0.5),
                             rng.Uniform(0.3, 4.0));
    }
    const auto comp = AttributeComponents::Numerical(gaussians);
    for (int trial = 0; trial < 200; ++trial) {
      Attribute one = Attribute::Numerical("x", 1);
      ASSERT_TRUE(one.AddValue(0, rng.Uniform(-3.0, 3.0 * k)).ok());
      Matrix theta(1, k);
      theta.SetRow(0, rng.SimplexUniform(k));
      EXPECT_EQ(AttributeLogLikelihood(one, comp, theta),
                PerObservationLogLikelihood(one, comp, theta))
          << "K=" << k << " trial " << trial;
    }
    const size_t n = 40;
    Attribute values = Attribute::Numerical("x", n);
    for (NodeId v = 0; v < n; ++v) {
      if (v % 5 == 4) continue;
      for (size_t rep = 0; rep <= v % 3; ++rep) {
        ASSERT_TRUE(values.AddValue(v, rng.Gaussian(3.0 * (v % k), 1.5)).ok());
      }
    }
    Matrix theta(n, k);
    for (NodeId v = 0; v < n; ++v) {
      Vector row = rng.SimplexUniform(k);
      if (v % 4 == 0) row[v % k] = 0.0;
      theta.SetRow(v, row);
    }
    EXPECT_EQ(AttributeLogLikelihood(values, comp, theta),
              PerObservationLogLikelihood(values, comp, theta))
        << "K=" << k;
  }
}

TEST(ObjectiveTest, MixtureBeatsWrongComponent) {
  // A node whose observation sits at cluster 0's mean must get a higher
  // likelihood when theta points at cluster 0 than at cluster 1.
  Attribute values = Attribute::Numerical("x", 1);
  (void)values.AddValue(0, 0.0);
  std::vector<GaussianDistribution> gaussians = {
      GaussianDistribution(0.0, 1.0), GaussianDistribution(5.0, 1.0)};
  auto comp = AttributeComponents::Numerical(std::move(gaussians));
  Matrix right(1, 2);
  right(0, 0) = 0.99;
  right(0, 1) = 0.01;
  Matrix wrong(1, 2);
  wrong(0, 0) = 0.01;
  wrong(0, 1) = 0.99;
  EXPECT_GT(AttributeLogLikelihood(values, comp, right),
            AttributeLogLikelihood(values, comp, wrong));
}

TEST(ObjectiveTest, NodesWithoutObservationsContributeNothing) {
  Attribute text = Attribute::Categorical("text", 2, 5);  // all empty
  auto comp = AttributeComponents::CategoricalUniform(2, 2);
  Matrix theta(5, 2, 0.5);
  EXPECT_DOUBLE_EQ(AttributeLogLikelihood(text, comp, theta), 0.0);
}

TEST(ObjectiveTest, MultiAttributeSumsIndependently) {
  Attribute a = Attribute::Categorical("a", 2, 1);
  (void)a.AddTermCount(0, 0, 1.0);
  Attribute b = Attribute::Numerical("b", 1);
  (void)b.AddValue(0, 1.0);
  auto comp_a = AttributeComponents::CategoricalUniform(2, 2);
  auto comp_b = AttributeComponents::Numerical(
      {GaussianDistribution(1.0, 1.0), GaussianDistribution(2.0, 1.0)});
  Matrix theta(1, 2, 0.5);
  const double separate = AttributeLogLikelihood(a, comp_a, theta) +
                          AttributeLogLikelihood(b, comp_b, theta);
  const double together = TotalAttributeLogLikelihood(
      {&a, &b}, {comp_a, comp_b}, theta);
  EXPECT_NEAR(separate, together, 1e-12);
}

TEST(ObjectiveTest, G1IsStructurePlusAttributes) {
  auto fixture = testing::MakeTwoCommunityNetwork(3, 1.0, 81);
  const Network& net = fixture.dataset.network;
  std::vector<const Attribute*> attrs = {&fixture.dataset.attributes[0]};
  auto comp = AttributeComponents::CategoricalUniform(2, 4);
  std::vector<AttributeComponents> comps = {comp};
  Rng rng(3);
  Matrix theta(net.num_nodes(), 2);
  for (size_t v = 0; v < net.num_nodes(); ++v) {
    theta.SetRow(v, rng.SimplexUniform(2));
  }
  std::vector<double> gamma = {1.0, 2.0, 0.5};
  EXPECT_NEAR(G1Objective(net, attrs, comps, theta, gamma),
              StructuralScore(net, theta, gamma) +
                  TotalAttributeLogLikelihood(attrs, comps, theta),
              1e-9);
}

}  // namespace
}  // namespace genclus
