// Cluster-optimization (EM) step: simplex invariants, update-rule
// semantics (Eqs. 10-12), incomplete-attribute handling, and parallel
// equivalence.
#include "core/em.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/init.h"
#include "core/objective.h"
#include "prob/simplex.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::MakeTwoCommunityNetwork;

class EmFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = MakeTwoCommunityNetwork(5, 1.0, 21);
    config_.num_clusters = 2;
    config_.seed = 99;
    attrs_ = {&fixture_.dataset.attributes[0]};
    gamma_.assign(3, 1.0);
  }

  void InitState(Matrix* theta, std::vector<AttributeComponents>* comps,
                 uint64_t seed = 5) {
    Rng rng(seed);
    *theta = RandomTheta(fixture_.dataset.network.num_nodes(),
                         config_.num_clusters, &rng);
    *comps = InitialComponents(attrs_, config_, &rng);
  }

  testing::TwoCommunityNetwork fixture_;
  GenClusConfig config_;
  std::vector<const Attribute*> attrs_;
  std::vector<double> gamma_;
};

TEST_F(EmFixture, ThetaRowsStayOnSimplex) {
  EmOptimizer opt(&fixture_.dataset.network, attrs_, &config_, nullptr);
  Matrix theta;
  std::vector<AttributeComponents> comps;
  InitState(&theta, &comps);
  for (int step = 0; step < 5; ++step) {
    opt.Step(gamma_, &theta, &comps);
    for (size_t v = 0; v < theta.rows(); ++v) {
      EXPECT_TRUE(IsOnSimplex(theta.RowVector(v), 1e-9))
          << "node " << v << " step " << step;
    }
  }
}

TEST_F(EmFixture, BetaRowsAreDistributions) {
  EmOptimizer opt(&fixture_.dataset.network, attrs_, &config_, nullptr);
  Matrix theta;
  std::vector<AttributeComponents> comps;
  InitState(&theta, &comps);
  opt.Step(gamma_, &theta, &comps);
  const Matrix& beta = comps[0].beta();
  for (size_t k = 0; k < beta.rows(); ++k) {
    double total = 0.0;
    for (size_t l = 0; l < beta.cols(); ++l) {
      EXPECT_GT(beta(k, l), 0.0);  // smoothing keeps strictly positive
      total += beta(k, l);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(EmFixture, RunConvergesAndDeltaShrinks) {
  EmOptimizer opt(&fixture_.dataset.network, attrs_, &config_, nullptr);
  Matrix theta;
  std::vector<AttributeComponents> comps;
  InitState(&theta, &comps);
  config_.em_iterations = 200;
  config_.em_tolerance = 1e-8;
  EmStats stats = opt.Run(gamma_, &theta, &comps);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(stats.final_delta, 1e-8);
}

TEST_F(EmFixture, ObjectiveAlongEmStepsIsFiniteAndDoesNotFall) {
  // g1 after each step, taken from G1Objective as Engine's outer loop
  // takes it.
  EmOptimizer opt(&fixture_.dataset.network, attrs_, &config_, nullptr);
  Matrix theta;
  std::vector<AttributeComponents> comps;
  InitState(&theta, &comps);
  EmWorkspace workspace;
  std::vector<double> trace;
  for (int step = 0; step < 10; ++step) {
    opt.Step(gamma_, &theta, &comps, &workspace);
    trace.push_back(G1Objective(fixture_.dataset.network, attrs_, comps,
                                theta, gamma_));
  }
  // The alternating update should not collapse: all values finite.
  for (double g1 : trace) EXPECT_TRUE(std::isfinite(g1));
  // Later iterations should not be dramatically worse than the start.
  EXPECT_GE(trace.back(), trace.front() - 1e-6);
}

TEST_F(EmFixture, RecoversPlantedCommunities) {
  EmOptimizer opt(&fixture_.dataset.network, attrs_, &config_, nullptr);
  Matrix theta;
  std::vector<AttributeComponents> comps;
  InitState(&theta, &comps);
  config_.em_iterations = 100;
  opt.Run(gamma_, &theta, &comps);
  // All community-0 docs should agree with each other on their argmax and
  // disagree with community-1 docs.
  const size_t half = 5;
  const uint32_t side0 = static_cast<uint32_t>(
      ArgMax(theta.RowVector(fixture_.docs[0])));
  for (size_t i = 0; i < half; ++i) {
    EXPECT_EQ(ArgMax(theta.RowVector(fixture_.docs[i])), side0);
    EXPECT_NE(ArgMax(theta.RowVector(fixture_.docs[half + i])), side0);
  }
  // Tags have no text: their membership must follow their community's docs.
  EXPECT_EQ(ArgMax(theta.RowVector(fixture_.tags[0])), side0);
  EXPECT_NE(ArgMax(theta.RowVector(fixture_.tags[1])), side0);
}

TEST_F(EmFixture, AttributeFreeNodesFollowNeighbors) {
  // With gamma = 0 for tag_doc and doc_tag, tags receive no information at
  // all; their theta must go uniform. (Eq. 10: link part zero, no
  // attribute part.)
  EmOptimizer opt(&fixture_.dataset.network, attrs_, &config_, nullptr);
  Matrix theta;
  std::vector<AttributeComponents> comps;
  InitState(&theta, &comps);
  std::vector<double> gamma = {1.0, 1.0, 1.0};
  gamma[fixture_.tag_doc] = 0.0;
  opt.Step(gamma, &theta, &comps);
  for (NodeId tag : fixture_.tags) {
    Vector row = theta.RowVector(tag);
    EXPECT_NEAR(row[0], 0.5, 1e-9);
    EXPECT_NEAR(row[1], 0.5, 1e-9);
  }
}

TEST_F(EmFixture, IncompleteTextStillClustersDocs) {
  // Only 40% of docs carry text; links must propagate labels to the rest.
  auto sparse = MakeTwoCommunityNetwork(8, 0.4, 31);
  std::vector<const Attribute*> attrs = {&sparse.dataset.attributes[0]};
  EmOptimizer opt(&sparse.dataset.network, attrs, &config_, nullptr);
  Rng rng(7);
  Matrix theta = RandomTheta(sparse.dataset.network.num_nodes(), 2, &rng);
  auto comps = InitialComponents(attrs, config_, &rng);
  config_.em_iterations = 150;
  opt.Run({1.0, 1.0, 1.0}, &theta, &comps);
  // Count in-community agreement.
  size_t agree = 0;
  const uint32_t side0 = static_cast<uint32_t>(
      ArgMax(theta.RowVector(sparse.docs[0])));
  for (size_t i = 0; i < 8; ++i) {
    if (ArgMax(theta.RowVector(sparse.docs[i])) == side0) ++agree;
    if (ArgMax(theta.RowVector(sparse.docs[8 + i])) != side0) ++agree;
  }
  EXPECT_GE(agree, 14u);  // allow at most 2 mislabeled docs out of 16
}

TEST_F(EmFixture, ParallelStepMatchesSerial) {
  Matrix theta_serial;
  std::vector<AttributeComponents> comps_serial;
  InitState(&theta_serial, &comps_serial, 17);
  Matrix theta_parallel = theta_serial;
  std::vector<AttributeComponents> comps_parallel = comps_serial;

  EmOptimizer serial(&fixture_.dataset.network, attrs_, &config_, nullptr);
  ThreadPool pool(4);
  EmOptimizer parallel(&fixture_.dataset.network, attrs_, &config_, &pool);
  for (int step = 0; step < 3; ++step) {
    serial.Step(gamma_, &theta_serial, &comps_serial);
    parallel.Step(gamma_, &theta_parallel, &comps_parallel);
  }
  EXPECT_LT(Matrix::MaxAbsDiff(theta_serial, theta_parallel), 1e-12);
  EXPECT_LT(Matrix::MaxAbsDiff(comps_serial[0].beta(),
                               comps_parallel[0].beta()),
            1e-12);
}

TEST_F(EmFixture, GaussianAttributeUpdates) {
  // A small numerical-attribute network: values near 0 for community 0 and
  // near 10 for community 1; EM must separate the Gaussians.
  auto net_fixture = MakeTwoCommunityNetwork(4, 0.0, 41);
  const size_t n = net_fixture.dataset.network.num_nodes();
  Attribute values = Attribute::Numerical("x", n);
  Rng rng(11);
  for (size_t i = 0; i < 4; ++i) {
    (void)values.AddValue(net_fixture.docs[i], rng.Gaussian(0.0, 0.3));
    (void)values.AddValue(net_fixture.docs[4 + i], rng.Gaussian(10.0, 0.3));
  }
  std::vector<const Attribute*> attrs = {&values};
  EmOptimizer opt(&net_fixture.dataset.network, attrs, &config_, nullptr);
  Matrix theta = RandomTheta(n, 2, &rng);
  auto comps = InitialComponents(attrs, config_, &rng);
  config_.em_iterations = 100;
  opt.Run({1.0, 1.0, 1.0}, &theta, &comps);
  const double m0 = comps[0].gaussian(0).mean();
  const double m1 = comps[0].gaussian(1).mean();
  EXPECT_GT(std::fabs(m0 - m1), 5.0);  // means separated
  EXPECT_NEAR(std::min(m0, m1), 0.0, 1.0);
  EXPECT_NEAR(std::max(m0, m1), 10.0, 1.0);
}

TEST_F(EmFixture, TwoAttributesCombine) {
  // Eq. 12 case: two numerical attributes, each carried by HALF the nodes
  // (even-indexed docs observe x, odd-indexed observe y), both bimodal by
  // community. No node has both attributes, yet EM must combine them into
  // one consistent clustering through the links.
  auto net_fixture = MakeTwoCommunityNetwork(4, 0.0, 43);
  const size_t n = net_fixture.dataset.network.num_nodes();
  Attribute x = Attribute::Numerical("x", n);
  Attribute y = Attribute::Numerical("y", n);
  Rng rng(13);
  for (size_t i = 0; i < 8; ++i) {
    const bool second_community = i >= 4;
    const NodeId doc = net_fixture.docs[i];
    for (int rep = 0; rep < 3; ++rep) {
      if (i % 2 == 0) {
        (void)x.AddValue(doc, rng.Gaussian(second_community ? 5.0 : 0.0,
                                           0.2));
      } else {
        (void)y.AddValue(doc, rng.Gaussian(second_community ? 20.0 : 10.0,
                                           0.2));
      }
    }
  }
  std::vector<const Attribute*> attrs = {&x, &y};
  EmOptimizer opt(&net_fixture.dataset.network, attrs, &config_, nullptr);
  Matrix theta = RandomTheta(n, 2, &rng);
  auto comps = InitialComponents(attrs, config_, &rng);
  // Seed components consistently across the two attributes (the library
  // entry point does this via the multi-seed/k-means init).
  std::vector<uint32_t> seed_labels(n, 0);
  for (size_t i = 0; i < 8; ++i) {
    seed_labels[net_fixture.docs[i]] = i >= 4 ? 1 : 0;
  }
  theta = testing::ConcentratedTheta(seed_labels, 2, 0.4);
  opt.EstimateComponents(theta, &comps);
  config_.em_iterations = 100;
  opt.Run({1.0, 1.0, 1.0}, &theta, &comps);
  // The two communities separate even though no node has both attributes.
  const uint32_t side0 = static_cast<uint32_t>(
      ArgMax(theta.RowVector(net_fixture.docs[0])));
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ArgMax(theta.RowVector(net_fixture.docs[i])), side0);
    EXPECT_NE(ArgMax(theta.RowVector(net_fixture.docs[4 + i])), side0);
  }
  // Components recover the per-community means of both attributes.
  const double x_gap = std::fabs(comps[0].gaussian(0).mean() -
                                 comps[0].gaussian(1).mean());
  const double y_gap = std::fabs(comps[1].gaussian(0).mean() -
                                 comps[1].gaussian(1).mean());
  EXPECT_GT(x_gap, 2.5);
  EXPECT_GT(y_gap, 5.0);
}

TEST_F(EmFixture, EstimateComponentsFromLabels) {
  EmOptimizer opt(&fixture_.dataset.network, attrs_, &config_, nullptr);
  std::vector<uint32_t> labels(fixture_.dataset.network.num_nodes());
  for (NodeId v = 0; v < labels.size(); ++v) {
    labels[v] = fixture_.dataset.labels.Get(v);
  }
  Matrix theta = testing::ConcentratedTheta(labels, 2, 0.01);
  Rng rng(3);
  auto comps = InitialComponents(attrs_, config_, &rng);
  opt.EstimateComponents(theta, &comps);
  const Matrix& beta = comps[0].beta();
  // Cluster of community 0 concentrates on terms {0,1}; community 1 on
  // {2,3} (up to label permutation).
  const double c0_own = beta(0, 0) + beta(0, 1);
  const double c0_other = beta(0, 2) + beta(0, 3);
  EXPECT_GT(std::fabs(c0_own - c0_other), 0.8);
}

// The kernel-path checks at every cluster count the sweep dispatches on:
// K = 2, 3, 4 and 8 run the unrolled instantiations, K = 5 the runtime-K
// fallback.
class EmKernelByKTest : public EmFixture,
                        public ::testing::WithParamInterface<size_t> {
 protected:
  void SetUp() override {
    EmFixture::SetUp();
    config_.num_clusters = GetParam();
  }
};

INSTANTIATE_TEST_SUITE_P(
    ClusterCounts, EmKernelByKTest,
    ::testing::Values(size_t{2}, size_t{3}, size_t{4}, size_t{5}, size_t{8}),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return "K" + std::to_string(info.param);
    });

TEST_P(EmKernelByKTest, KernelStepMatchesReferenceOnTextFixture) {
  // The typed-CSR/SpMM kernel path must reproduce the original per-link
  // AoS traversal within 1e-12 on every iterate of a multi-step run.
  Matrix theta_kernel;
  std::vector<AttributeComponents> comps_kernel;
  InitState(&theta_kernel, &comps_kernel, 23);
  Matrix theta_ref = theta_kernel;
  std::vector<AttributeComponents> comps_ref = comps_kernel;

  EmOptimizer opt(&fixture_.dataset.network, attrs_, &config_, nullptr);
  EmWorkspace workspace;
  for (int step = 0; step < 5; ++step) {
    const double delta_kernel =
        opt.Step(gamma_, &theta_kernel, &comps_kernel, &workspace);
    const double delta_ref = opt.ReferenceStep(gamma_, &theta_ref, &comps_ref);
    EXPECT_NEAR(delta_kernel, delta_ref, 1e-12) << "step " << step;
    EXPECT_LT(Matrix::MaxAbsDiff(theta_kernel, theta_ref), 1e-12)
        << "step " << step;
    EXPECT_LT(Matrix::MaxAbsDiff(comps_kernel[0].beta(), comps_ref[0].beta()),
              1e-12)
        << "step " << step;
  }
}

TEST_P(EmKernelByKTest, KernelStepMatchesReferenceWithNumericalAttributes) {
  // Same cross-check with a numerical attribute carried by half the docs
  // (incomplete), so the Gaussian-constant path and the incomplete-
  // attribute path both run.
  auto net_fixture = MakeTwoCommunityNetwork(6, 0.0, 77);
  const size_t n = net_fixture.dataset.network.num_nodes();
  Attribute values = Attribute::Numerical("x", n);
  Rng value_rng(29);
  for (size_t i = 0; i < 6; i += 2) {
    (void)values.AddValue(net_fixture.docs[i], value_rng.Gaussian(0.0, 0.5));
    (void)values.AddValue(net_fixture.docs[6 + i],
                          value_rng.Gaussian(8.0, 0.5));
  }
  std::vector<const Attribute*> attrs = {&values};
  EmOptimizer opt(&net_fixture.dataset.network, attrs, &config_, nullptr);
  Rng rng(31);
  Matrix theta_kernel = RandomTheta(n, config_.num_clusters, &rng);
  auto comps_kernel = InitialComponents(attrs, config_, &rng);
  Matrix theta_ref = theta_kernel;
  auto comps_ref = comps_kernel;

  EmWorkspace workspace;
  for (int step = 0; step < 5; ++step) {
    opt.Step(gamma_, &theta_kernel, &comps_kernel, &workspace);
    opt.ReferenceStep(gamma_, &theta_ref, &comps_ref);
    EXPECT_LT(Matrix::MaxAbsDiff(theta_kernel, theta_ref), 1e-12)
        << "step " << step;
    for (ClusterId k = 0; k < config_.num_clusters; ++k) {
      EXPECT_NEAR(comps_kernel[0].gaussian(k).mean(),
                  comps_ref[0].gaussian(k).mean(), 1e-12);
      EXPECT_NEAR(comps_kernel[0].gaussian(k).variance(),
                  comps_ref[0].gaussian(k).variance(), 1e-12);
    }
  }
}

TEST_P(EmKernelByKTest, StepIsBitwiseInvariantToThreadCount) {
  // The fixed-grain block partition and block-ordered merge make one Step
  // bit-identical for any pool size, including no pool at all.
  Matrix theta_serial;
  std::vector<AttributeComponents> comps_serial;
  InitState(&theta_serial, &comps_serial, 47);

  EmOptimizer serial(&fixture_.dataset.network, attrs_, &config_, nullptr);
  for (int step = 0; step < 3; ++step) {
    serial.Step(gamma_, &theta_serial, &comps_serial);
  }
  for (size_t threads : {2u, 3u, 8u}) {
    Matrix theta;
    std::vector<AttributeComponents> comps;
    InitState(&theta, &comps, 47);
    ThreadPool pool(threads);
    EmOptimizer parallel(&fixture_.dataset.network, attrs_, &config_, &pool);
    for (int step = 0; step < 3; ++step) {
      parallel.Step(gamma_, &theta, &comps);
    }
    EXPECT_EQ(theta.data(), theta_serial.data()) << threads << " threads";
    EXPECT_EQ(comps[0].beta().data(), comps_serial[0].beta().data())
        << threads << " threads";
  }
}

TEST(EmMultiBlockTest, KernelPathDeterministicAndCorrectAcrossBlocks) {
  // The small fixtures above fit in a single 128-node reduction block, so
  // they cannot catch a broken block-order merge. 300 docs per side gives
  // 602 nodes = 5 blocks: cross-check the kernel path against the
  // reference AND pin bitwise thread invariance where the multi-block
  // merge actually runs.
  auto fixture = MakeTwoCommunityNetwork(300, 0.5, 57);
  std::vector<const Attribute*> attrs = {&fixture.dataset.attributes[0]};
  GenClusConfig config;
  config.num_clusters = 2;
  const std::vector<double> gamma(3, 1.0);
  Rng rng(58);
  const Matrix theta0 =
      RandomTheta(fixture.dataset.network.num_nodes(), 2, &rng);
  const auto comps0 = InitialComponents(attrs, config, &rng);

  // Reference iterate (original AoS traversal, straight-line accumulate).
  EmOptimizer serial(&fixture.dataset.network, attrs, &config, nullptr);
  Matrix theta_ref = theta0;
  auto comps_ref = comps0;
  for (int step = 0; step < 3; ++step) {
    serial.ReferenceStep(gamma, &theta_ref, &comps_ref);
  }

  // Serial kernel path: blocked merge must match the reference to 1e-12.
  Matrix theta_serial = theta0;
  auto comps_serial = comps0;
  EmWorkspace workspace;
  for (int step = 0; step < 3; ++step) {
    serial.Step(gamma, &theta_serial, &comps_serial, &workspace);
  }
  EXPECT_LT(Matrix::MaxAbsDiff(theta_serial, theta_ref), 1e-12);
  EXPECT_LT(Matrix::MaxAbsDiff(comps_serial[0].beta(), comps_ref[0].beta()),
            1e-12);

  // Pooled kernel path: bitwise equal to the serial kernel path.
  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    EmOptimizer parallel(&fixture.dataset.network, attrs, &config, &pool);
    Matrix theta = theta0;
    auto comps = comps0;
    for (int step = 0; step < 3; ++step) {
      parallel.Step(gamma, &theta, &comps);
    }
    EXPECT_EQ(theta.data(), theta_serial.data()) << threads << " threads";
    EXPECT_EQ(comps[0].beta().data(), comps_serial[0].beta().data())
        << threads << " threads";
  }
}

TEST_F(EmFixture, WorkspaceReuseDoesNotChangeResults) {
  // A workspace carried across steps (and sized for a different problem
  // first) must be arithmetically invisible.
  auto other = MakeTwoCommunityNetwork(3, 1.0, 13);
  std::vector<const Attribute*> other_attrs = {&other.dataset.attributes[0]};
  EmOptimizer other_opt(&other.dataset.network, other_attrs, &config_,
                        nullptr);
  EmWorkspace workspace;
  Matrix other_theta;
  std::vector<AttributeComponents> other_comps;
  {
    Rng rng(5);
    other_theta = RandomTheta(other.dataset.network.num_nodes(), 2, &rng);
    other_comps = InitialComponents(other_attrs, config_, &rng);
  }
  other_opt.Step(gamma_, &other_theta, &other_comps, &workspace);

  Matrix theta_shared, theta_fresh;
  std::vector<AttributeComponents> comps_shared, comps_fresh;
  InitState(&theta_shared, &comps_shared, 83);
  theta_fresh = theta_shared;
  comps_fresh = comps_shared;
  EmOptimizer opt(&fixture_.dataset.network, attrs_, &config_, nullptr);
  for (int step = 0; step < 3; ++step) {
    opt.Step(gamma_, &theta_shared, &comps_shared, &workspace);  // reused
    opt.Step(gamma_, &theta_fresh, &comps_fresh);  // fresh workspace each
  }
  EXPECT_EQ(theta_shared.data(), theta_fresh.data());
  EXPECT_EQ(comps_shared[0].beta().data(), comps_fresh[0].beta().data());
}

TEST(EstimateComponentsSmoothing, MatchesEmUpdateRuleExactly) {
  // EstimateComponents must apply the SAME smoothing as UpdateComponents:
  // smooth = beta_smoothing * row_total (no stray epsilon), with the
  // empty-cluster uniform fallback. With zero smoothing the estimate is
  // the exact ML ratio — unseen terms get exactly zero, and counts of
  // {term0: 2, term1: 6} in cluster 0 give exactly {0.25, 0.75}.
  Schema schema;
  ObjectTypeId doc = schema.AddObjectType("doc").value();
  (void)schema.AddLinkType("dd", doc, doc).value();
  NetworkBuilder builder(schema);
  NodeId a = builder.AddNode(doc).value();
  NodeId b = builder.AddNode(doc).value();
  Network net = std::move(builder).Build().value();

  Attribute text = Attribute::Categorical("text", 2, net.num_nodes());
  ASSERT_TRUE(text.AddTermCount(a, 0, 2.0).ok());
  ASSERT_TRUE(text.AddTermCount(b, 1, 6.0).ok());

  Matrix theta(net.num_nodes(), 2);
  theta.SetRow(a, {1.0, 0.0});  // both nodes in cluster 0: cluster 1 empty
  theta.SetRow(b, {1.0, 0.0});

  GenClusConfig config;
  config.num_clusters = 2;
  config.beta_smoothing = 0.0;
  EmOptimizer opt(&net, {&text}, &config, nullptr);
  std::vector<AttributeComponents> comps = {
      AttributeComponents::CategoricalUniform(2, 2)};
  opt.EstimateComponents(theta, &comps);
  const Matrix& beta = comps[0].beta();
  EXPECT_EQ(beta(0, 0), 0.25);
  EXPECT_EQ(beta(0, 1), 0.75);
  // Empty cluster keeps a uniform term distribution, as in the EM update.
  EXPECT_EQ(beta(1, 0), 0.5);
  EXPECT_EQ(beta(1, 1), 0.5);

  // With smoothing on, the value is exactly the UpdateComponents formula:
  // (count + s * total) / (total + s * total * vocab), s = beta_smoothing.
  config.beta_smoothing = 1e-6;
  std::vector<AttributeComponents> smoothed = {
      AttributeComponents::CategoricalUniform(2, 2)};
  opt.EstimateComponents(theta, &smoothed);
  const double smooth = config.beta_smoothing * 8.0;
  EXPECT_EQ(smoothed[0].beta()(0, 0), (2.0 + smooth) / (8.0 + 2.0 * smooth));
  EXPECT_EQ(smoothed[0].beta()(0, 1), (6.0 + smooth) / (8.0 + 2.0 * smooth));
}

}  // namespace
}  // namespace genclus
