// Verifies the three desiderata of §3.3 for the cross entropy-based
// feature function, plus the worked example of Fig. 4.
#include "core/feature.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::MakeTwoCommunityNetwork;

TEST(FeatureTest, Desideratum1IncreasesWithSimilarity) {
  std::vector<double> theta1 = {7.0 / 8, 1.0 / 16, 1.0 / 16};
  std::vector<double> similar = {5.0 / 6, 1.0 / 12, 1.0 / 12};
  std::vector<double> neutral = {1.0 / 3, 1.0 / 3, 1.0 / 3};
  std::vector<double> opposite = {1.0 / 16, 1.0 / 16, 7.0 / 8};
  const double f_sim = LinkFeature(theta1, similar, 1.0, 1.0);
  const double f_neu = LinkFeature(theta1, neutral, 1.0, 1.0);
  const double f_opp = LinkFeature(theta1, opposite, 1.0, 1.0);
  EXPECT_GT(f_sim, f_neu);
  EXPECT_GT(f_neu, f_opp);
}

TEST(FeatureTest, Desideratum2DecreasesWithStrengthAndWeight) {
  std::vector<double> a = {0.8, 0.2};
  std::vector<double> b = {0.6, 0.4};
  // f is <= 0; scaling gamma or w(e) up makes it more negative.
  EXPECT_LT(LinkFeature(a, b, 2.0, 1.0), LinkFeature(a, b, 1.0, 1.0));
  EXPECT_LT(LinkFeature(a, b, 1.0, 3.0), LinkFeature(a, b, 1.0, 1.0));
}

TEST(FeatureTest, Desideratum3Asymmetric) {
  std::vector<double> expert = {5.0 / 6, 1.0 / 12, 1.0 / 12};
  std::vector<double> neutral = {1.0 / 3, 1.0 / 3, 1.0 / 3};
  const double f_en = LinkFeature(expert, neutral, 1.0, 1.0);
  const double f_ne = LinkFeature(neutral, expert, 1.0, 1.0);
  EXPECT_NE(f_en, f_ne);
  // Paper: f(<1,4>) = -1.7174, f(<4,1>) = -1.0986 with gamma = w = 1;
  // the neutral-source direction scores lower.
  EXPECT_LT(f_en, f_ne);
  EXPECT_NEAR(f_en, -1.7174, 5e-4);
  EXPECT_NEAR(f_ne, -1.0986, 5e-4);
}

TEST(FeatureTest, NonPositiveEverywhere) {
  // f <= 0 for all simplex inputs (log of probabilities <= 0).
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    auto p = rng.SimplexUniform(4);
    auto q = rng.SimplexUniform(4);
    EXPECT_LE(LinkFeature(p, q, rng.Uniform(0.0, 5.0),
                          rng.Uniform(0.1, 2.0)),
              0.0);
  }
}

TEST(FeatureTest, MaximizedAtIdenticalConcentratedVectors) {
  // For fixed gamma, w: identical point masses give f = 0, the maximum.
  std::vector<double> point = {1.0, 0.0, 0.0};
  EXPECT_NEAR(LinkFeature(point, point, 2.0, 1.5), 0.0, 1e-9);
}

TEST(FeatureTest, ZeroGammaKillsTheTerm) {
  std::vector<double> a = {0.9, 0.1};
  std::vector<double> b = {0.1, 0.9};
  EXPECT_DOUBLE_EQ(LinkFeature(a, b, 0.0, 1.0), 0.0);
}

TEST(FeatureTest, FlooringKeepsValueFinite) {
  std::vector<double> source = {1.0, 0.0};  // exact zero component
  std::vector<double> target = {0.0, 1.0};  // weights the zero component
  const double f = LinkFeature(source, target, 1.0, 1.0);
  EXPECT_TRUE(std::isfinite(f));
  EXPECT_LT(f, -10.0);  // heavily penalized but finite
}

TEST(StructuralScoreTest, AgreesWithManualSum) {
  // StructuralScore takes each source node's floored logs once per node;
  // its sum must be bit for bit the per-link LinkFeature sum, with rows
  // holding exact zeros (skipped as a target, floored as a source) and
  // entries under kDefaultThetaFloor.
  auto fixture = MakeTwoCommunityNetwork(6, 1.0, 4);
  const Network& net = fixture.dataset.network;
  const std::vector<double> gamma = {1.5, 0.25, 2.0};
  for (size_t k : {2u, 3u, 5u}) {
    Matrix theta(net.num_nodes(), k);
    Rng rng(11 + k);
    for (size_t v = 0; v < net.num_nodes(); ++v) {
      Vector row = rng.SimplexUniform(k);
      if (v % 3 == 0) row[0] = 0.0;
      if (v % 4 == 1) row[k - 1] = 1e-15;
      theta.SetRow(v, row);
    }
    double manual = 0.0;
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      for (const LinkEntry& e : net.OutLinks(v)) {
        manual += LinkFeature({theta.Row(v), k}, {theta.Row(e.neighbor), k},
                              gamma[e.type], e.weight);
      }
    }
    EXPECT_EQ(StructuralScore(net, theta, gamma), manual) << "K=" << k;
  }
}

TEST(FeatureTest, ScoreFromLogsIsBitwiseCrossEntropyScore) {
  Rng rng(9);
  for (size_t k : {2u, 4u, 7u}) {
    for (int trial = 0; trial < 20; ++trial) {
      Vector theta_i = rng.SimplexUniform(k);
      Vector theta_j = rng.SimplexUniform(k);
      theta_i[trial % k] = trial % 2 == 0 ? 0.0 : 1e-14;
      theta_j[(trial + 1) % k] = 0.0;
      Vector log_theta_i(k);
      FlooredLogTheta(theta_i, log_theta_i);
      EXPECT_EQ(CrossEntropyScoreFromLogs(log_theta_i, theta_j),
                CrossEntropyScore(theta_i, theta_j))
          << "K=" << k << " trial " << trial;
    }
  }
}

TEST(StructuralScoreTest, DecomposesByRelation) {
  auto fixture = MakeTwoCommunityNetwork(4, 1.0, 2);
  const Network& net = fixture.dataset.network;
  Matrix theta(net.num_nodes(), 2);
  Rng rng(7);
  for (size_t v = 0; v < net.num_nodes(); ++v) {
    theta.SetRow(v, rng.SimplexUniform(2));
  }
  std::vector<double> gamma = {0.7, 1.3, 0.2};
  double composed = 0.0;
  for (LinkTypeId r = 0; r < 3; ++r) {
    composed += gamma[r] * PerRelationScore(net, theta, r);
  }
  EXPECT_NEAR(StructuralScore(net, theta, gamma), composed, 1e-9);
}

TEST(StructuralScoreTest, ConsistentThetaScoresHigher) {
  auto fixture = MakeTwoCommunityNetwork(5, 1.0, 3);
  const Network& net = fixture.dataset.network;
  std::vector<uint32_t> labels(net.num_nodes());
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    labels[v] = fixture.dataset.labels.Get(v);
  }
  Matrix aligned = testing::ConcentratedTheta(labels, 2, 0.05);
  // Anti-aligned: swap the two communities' labels for half the docs only,
  // which breaks intra-community consistency.
  std::vector<uint32_t> scrambled = labels;
  for (size_t i = 0; i < scrambled.size(); i += 2) {
    scrambled[i] = 1 - scrambled[i];
  }
  Matrix misaligned = testing::ConcentratedTheta(scrambled, 2, 0.05);
  std::vector<double> gamma = {1.0, 1.0, 1.0};
  EXPECT_GT(StructuralScore(net, aligned, gamma),
            StructuralScore(net, misaligned, gamma));
}

}  // namespace
}  // namespace genclus
