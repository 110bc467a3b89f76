// Strength-learning step: analytic gradient/Hessian (Eqs. 16-17) against
// finite differences, concavity, projection, and qualitative behaviour
// (consistent relations earn higher strengths).
#include "core/strength.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/feature.h"
#include "linalg/solve.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::ConcentratedTheta;
using testing::MakeTwoCommunityNetwork;

class StrengthFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = MakeTwoCommunityNetwork(4, 1.0, 11);
    const Network& net = fixture_.dataset.network;
    labels_.resize(net.num_nodes());
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      labels_[v] = fixture_.dataset.labels.Get(v);
    }
    theta_ = ConcentratedTheta(labels_, 2, 0.1);
    config_.num_clusters = 2;
    config_.gamma_prior_sigma = 0.5;
  }

  testing::TwoCommunityNetwork fixture_;
  std::vector<uint32_t> labels_;
  Matrix theta_;
  GenClusConfig config_;
};

TEST_F(StrengthFixture, GradientMatchesFiniteDifference) {
  StrengthLearner learner(&fixture_.dataset.network, &theta_, &config_);
  const std::vector<double> gamma = {1.0, 0.7, 1.3};
  const std::vector<double> grad = learner.Gradient(gamma);
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

TEST_F(StrengthFixture, HessianMatchesFiniteDifference) {
  StrengthLearner learner(&fixture_.dataset.network, &theta_, &config_);
  const std::vector<double> gamma = {0.8, 1.2, 0.5};
  const Matrix hess = learner.Hessian(gamma);
  const double h = 1e-5;
  for (size_t r1 = 0; r1 < gamma.size(); ++r1) {
    for (size_t r2 = 0; r2 < gamma.size(); ++r2) {
      std::vector<double> up = gamma;
      std::vector<double> down = gamma;
      up[r2] += h;
      down[r2] -= h;
      const double numeric =
          (learner.Gradient(up)[r1] - learner.Gradient(down)[r1]) / (2.0 * h);
      EXPECT_NEAR(hess(r1, r2), numeric,
                  1e-3 * (1.0 + std::fabs(numeric)))
          << "entry (" << r1 << "," << r2 << ")";
    }
  }
}

TEST_F(StrengthFixture, HessianSymmetricNegativeDefinite) {
  StrengthLearner learner(&fixture_.dataset.network, &theta_, &config_);
  const std::vector<double> gamma = {1.0, 1.0, 1.0};
  Matrix hess = learner.Hessian(gamma);
  for (size_t i = 0; i < hess.rows(); ++i) {
    for (size_t j = 0; j < hess.cols(); ++j) {
      EXPECT_NEAR(hess(i, j), hess(j, i), 1e-9);
    }
  }
  // -H must be SPD (Appendix B concavity proof).
  Matrix neg = hess;
  neg.Scale(-1.0);
  EXPECT_TRUE(CholeskyFactorization::Compute(neg).ok());
}

TEST_F(StrengthFixture, ObjectiveConcaveAlongRandomSegments) {
  StrengthLearner learner(&fixture_.dataset.network, &theta_, &config_);
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> a(3), b(3);
    for (size_t r = 0; r < 3; ++r) {
      a[r] = rng.Uniform(0.0, 3.0);
      b[r] = rng.Uniform(0.0, 3.0);
    }
    std::vector<double> mid(3);
    for (size_t r = 0; r < 3; ++r) mid[r] = 0.5 * (a[r] + b[r]);
    // Concavity: f(mid) >= (f(a) + f(b)) / 2.
    EXPECT_GE(learner.Objective(mid) + 1e-9,
              0.5 * (learner.Objective(a) + learner.Objective(b)));
  }
}

TEST_F(StrengthFixture, LearnImprovesObjectiveAndStaysNonNegative) {
  StrengthLearner learner(&fixture_.dataset.network, &theta_, &config_);
  const std::vector<double> start = {1.0, 1.0, 1.0};
  StrengthStats stats;
  std::vector<double> learned = learner.Learn(start, &stats);
  EXPECT_GE(learner.Objective(learned), learner.Objective(start) - 1e-9);
  for (double g : learned) EXPECT_GE(g, 0.0);
  EXPECT_GT(stats.iterations, 0u);
}

TEST_F(StrengthFixture, LearnedOptimumHasNonPositiveProjectedGradient) {
  // At the constrained maximum: grad <= 0 where gamma = 0 and grad ~ 0
  // where gamma > 0.
  StrengthLearner learner(&fixture_.dataset.network, &theta_, &config_);
  config_.newton_iterations = 200;
  std::vector<double> learned = learner.Learn({1.0, 1.0, 1.0}, nullptr);
  std::vector<double> grad = learner.Gradient(learned);
  for (size_t r = 0; r < learned.size(); ++r) {
    if (learned[r] > 1e-8) {
      EXPECT_NEAR(grad[r], 0.0, 1e-3) << "interior relation " << r;
    } else {
      EXPECT_LE(grad[r], 1e-6) << "boundary relation " << r;
    }
  }
}

TEST_F(StrengthFixture, ConsistentRelationBeatsInconsistentOne) {
  // Rebuild theta so that doc_doc links connect identical vectors (fully
  // consistent) while doc_tag links connect dissimilar ones: the learner
  // must assign doc_doc a higher strength than doc_tag.
  const Network& net = fixture_.dataset.network;
  Matrix theta(net.num_nodes(), 2);
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (net.node_type(v) == fixture_.doc_type) {
      const uint32_t side = fixture_.dataset.labels.Get(v);
      theta.SetRow(v, side == 0 ? Vector{0.95, 0.05} : Vector{0.05, 0.95});
    } else {
      theta.SetRow(v, {0.5, 0.5});  // tags neutral => doc_tag inconsistent
    }
  }
  StrengthLearner learner(&net, &theta, &config_);
  std::vector<double> learned = learner.Learn({1.0, 1.0, 1.0}, nullptr);
  EXPECT_GT(learned[fixture_.doc_doc], learned[fixture_.doc_tag]);
}

TEST_F(StrengthFixture, PriorShrinksWithSmallSigma) {
  StrengthLearner learner(&fixture_.dataset.network, &theta_, &config_);
  std::vector<double> loose = learner.Learn({1.0, 1.0, 1.0}, nullptr);

  GenClusConfig tight_config = config_;
  tight_config.gamma_prior_sigma = 0.01;  // much stronger prior toward 0
  StrengthLearner tight_learner(&fixture_.dataset.network, &theta_,
                                &tight_config);
  std::vector<double> tight = tight_learner.Learn({1.0, 1.0, 1.0}, nullptr);
  double loose_norm = 0.0;
  double tight_norm = 0.0;
  for (size_t r = 0; r < 3; ++r) {
    loose_norm += loose[r] * loose[r];
    tight_norm += tight[r] * tight[r];
  }
  EXPECT_LT(tight_norm, loose_norm);
}

TEST_F(StrengthFixture, AllZeroGammaIsValidInput) {
  StrengthLearner learner(&fixture_.dataset.network, &theta_, &config_);
  const std::vector<double> zeros = {0.0, 0.0, 0.0};
  EXPECT_TRUE(std::isfinite(learner.Objective(zeros)));
  std::vector<double> learned = learner.Learn(zeros, nullptr);
  for (double g : learned) EXPECT_GE(g, 0.0);
}

TEST_F(StrengthFixture, FusedEvalMatchesSerialReference) {
  // The fused EvalAll traversal shares alpha/digamma/trigamma evaluations
  // and reduces blocked partials; it must agree with the serial reference
  // passes to well below solver tolerance.
  StrengthLearner learner(&fixture_.dataset.network, &theta_, &config_);
  const std::vector<double> gamma = {1.1, 0.4, 2.0};
  const StrengthLearner::Evaluation eval = learner.EvalAll(gamma);
  EXPECT_NEAR(eval.objective, learner.Objective(gamma),
              1e-12 * (1.0 + std::fabs(eval.objective)));
  const std::vector<double> grad = learner.Gradient(gamma);
  ASSERT_EQ(eval.gradient.size(), grad.size());
  for (size_t r = 0; r < grad.size(); ++r) {
    EXPECT_NEAR(eval.gradient[r], grad[r],
                1e-12 * (1.0 + std::fabs(grad[r])));
  }
  const Matrix hess = learner.Hessian(gamma);
  for (size_t r1 = 0; r1 < grad.size(); ++r1) {
    for (size_t r2 = 0; r2 < grad.size(); ++r2) {
      EXPECT_NEAR(eval.hessian(r1, r2), hess(r1, r2),
                  1e-12 * (1.0 + std::fabs(hess(r1, r2))));
    }
  }
}

TEST_F(StrengthFixture, FusedEvalBitwiseInvariantToThreadCount) {
  // Shard partials are reduced in fixed block order, so the evaluation is
  // bitwise identical for any pool size (and without a pool).
  StrengthLearner serial(&fixture_.dataset.network, &theta_, &config_);
  const std::vector<double> gamma = {1.0, 0.6, 1.7};
  const StrengthLearner::Evaluation reference = serial.EvalAll(gamma);
  for (size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    StrengthLearner learner(&fixture_.dataset.network, &theta_, &config_,
                            &pool);
    const StrengthLearner::Evaluation eval = learner.EvalAll(gamma);
    EXPECT_EQ(eval.objective, reference.objective) << threads << " threads";
    for (size_t r = 0; r < gamma.size(); ++r) {
      EXPECT_EQ(eval.gradient[r], reference.gradient[r])
          << threads << " threads, relation " << r;
    }
    for (size_t r1 = 0; r1 < gamma.size(); ++r1) {
      for (size_t r2 = 0; r2 < gamma.size(); ++r2) {
        EXPECT_EQ(eval.hessian(r1, r2), reference.hessian(r1, r2))
            << threads << " threads, entry (" << r1 << "," << r2 << ")";
      }
    }
  }
}

TEST_F(StrengthFixture, LearnedGammaInvariantToThreadCount) {
  StrengthLearner serial(&fixture_.dataset.network, &theta_, &config_);
  StrengthStats serial_stats;
  const std::vector<double> reference =
      serial.Learn({1.0, 1.0, 1.0}, &serial_stats);
  for (size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    StrengthLearner learner(&fixture_.dataset.network, &theta_, &config_,
                            &pool);
    StrengthStats stats;
    const std::vector<double> learned = learner.Learn({1.0, 1.0, 1.0},
                                                      &stats);
    ASSERT_EQ(learned.size(), reference.size());
    for (size_t r = 0; r < learned.size(); ++r) {
      EXPECT_EQ(learned[r], reference[r]) << threads << " threads";
    }
    EXPECT_EQ(stats.iterations, serial_stats.iterations);
    EXPECT_EQ(stats.objective, serial_stats.objective);
  }
}

// Learn's projected Newton loop written over the public EvalAll: every
// objective, the line search's included, is EvalAll(x).objective, and
// every step's gradient and Hessian come from the same full evaluation.
struct NewtonReplay {
  std::vector<double> gamma;
  StrengthStats stats;
};

NewtonReplay NewtonLoopOverEvalAll(const StrengthLearner& learner,
                                   const GenClusConfig& config,
                                   const std::vector<double>& start) {
  const size_t num_relations = start.size();
  std::vector<double> current = start;
  for (double& g : current) g = std::max(0.0, g);
  StrengthStats local;
  double current_obj = learner.EvalAll(current).objective;
  for (size_t iter = 0; iter < config.newton_iterations; ++iter) {
    local.iterations = iter + 1;
    const StrengthLearner::Evaluation eval = learner.EvalAll(current);
    std::vector<double> next;
    bool have_newton = false;
    auto solve = SolveLinearSystem(eval.hessian, eval.gradient);
    if (solve.ok()) {
      next = current;
      bool finite = true;
      for (size_t r = 0; r < num_relations; ++r) {
        next[r] -= (*solve)[r];
        if (!std::isfinite(next[r])) finite = false;
      }
      have_newton = finite;
    }
    if (!have_newton) {
      local.used_gradient_fallback = true;
      const double gnorm = Norm2(eval.gradient);
      const double step = gnorm > 0.0 ? 1.0 / (1.0 + gnorm) : 0.0;
      next = current;
      for (size_t r = 0; r < num_relations; ++r) {
        next[r] += step * eval.gradient[r];
      }
    }
    for (double& g : next) g = std::max(0.0, g);
    double next_obj = learner.EvalAll(next).objective;
    double shrink = 0.5;
    size_t backtracks = 0;
    while (next_obj < current_obj - 1e-12 && backtracks < 40) {
      for (size_t r = 0; r < num_relations; ++r) {
        next[r] = current[r] + shrink * (next[r] - current[r]);
      }
      next_obj = learner.EvalAll(next).objective;
      ++backtracks;
    }
    if (next_obj < current_obj - 1e-12) {
      local.converged = true;
      break;
    }
    double delta = 0.0;
    for (size_t r = 0; r < num_relations; ++r) {
      delta = std::max(delta, std::fabs(next[r] - current[r]));
    }
    current = std::move(next);
    current_obj = next_obj;
    if (delta < config.newton_tolerance) {
      local.converged = true;
      break;
    }
  }
  local.objective = current_obj;
  return {current, local};
}

TEST_F(StrengthFixture, LearnMatchesNewtonLoopOverEvalAll) {
  // Learn's Newton step reduces gradient and Hessian only, reusing the
  // line search's objective: the iterate, the iteration count and the
  // objective must be bitwise those of the loop that evaluated all three
  // at every step.
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    StrengthLearner learner(&fixture_.dataset.network, &theta_, &config_,
                            &pool);
    for (const std::vector<double>& start :
         {std::vector<double>{1.0, 1.0, 1.0},
          std::vector<double>{0.3, 2.5, 0.0}}) {
      StrengthStats stats;
      const std::vector<double> learned = learner.Learn(start, &stats);
      const NewtonReplay replay =
          NewtonLoopOverEvalAll(learner, config_, start);
      ASSERT_EQ(learned.size(), replay.gamma.size());
      for (size_t r = 0; r < learned.size(); ++r) {
        EXPECT_EQ(learned[r], replay.gamma[r])
            << threads << " threads, start " << start[1] << ", relation "
            << r;
      }
      EXPECT_EQ(stats.iterations, replay.stats.iterations) << threads;
      EXPECT_EQ(stats.objective, replay.stats.objective) << threads;
      EXPECT_EQ(stats.converged, replay.stats.converged) << threads;
      EXPECT_EQ(stats.used_gradient_fallback,
                replay.stats.used_gradient_fallback)
          << threads;
    }
  }
}

TEST_F(StrengthFixture, DeterministicAcrossCalls) {
  StrengthLearner learner(&fixture_.dataset.network, &theta_, &config_);
  auto first = learner.Learn({1.0, 1.0, 1.0}, nullptr);
  auto second = learner.Learn({1.0, 1.0, 1.0}, nullptr);
  ASSERT_EQ(first.size(), second.size());
  for (size_t r = 0; r < first.size(); ++r) {
    EXPECT_DOUBLE_EQ(first[r], second[r]);
  }
}

}  // namespace
}  // namespace genclus
