// The distribution families of §3.2: categorical term distributions for text
// attributes (Eq. 3), Gaussians for numerical attributes (Eq. 4), and the
// Dirichlet that arises as the conditional of theta_i given its out-link
// neighbors in the strength-learning step (Eq. 15).
#pragma once

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace genclus {

/// log(2*pi), the Gaussian log-normalizer constant shared by
/// GaussianDistribution::LogPdf and callers that hoist the per-cluster
/// constants out of their inner loops (core/components.h,
/// core/objective.cc).
inline constexpr double kLogTwoPi = 1.8378770664093454836;

/// Categorical distribution over a vocabulary {0, ..., m-1}; the cluster
/// component beta_k of a text attribute.
class CategoricalDistribution {
 public:
  /// Uniform distribution over `vocab_size` terms.
  explicit CategoricalDistribution(size_t vocab_size);

  /// From explicit probabilities; must be non-negative and sum to ~1
  /// (renormalized internally).
  static Result<CategoricalDistribution> FromProbabilities(
      std::vector<double> probs);

  /// From non-negative counts with additive (Laplace) smoothing.
  static Result<CategoricalDistribution> FromCounts(
      const std::vector<double>& counts, double smoothing);

  size_t vocab_size() const { return probs_.size(); }
  double prob(size_t term) const {
    GENCLUS_DCHECK(term < probs_.size());
    return probs_[term];
  }
  const std::vector<double>& probs() const { return probs_; }

  /// log P(term); -inf if the term has zero probability.
  double LogProb(size_t term) const;

  /// Draws a term index.
  size_t Sample(Rng* rng) const;

 private:
  explicit CategoricalDistribution(std::vector<double> probs)
      : probs_(std::move(probs)) {}
  std::vector<double> probs_;
};

/// Univariate Gaussian; the cluster component beta_k = (mu_k, sigma_k^2)
/// of a numerical attribute.
class GaussianDistribution {
 public:
  GaussianDistribution(double mean, double variance);

  double mean() const { return mean_; }
  double variance() const { return variance_; }
  double stddev() const;

  double Pdf(double x) const;
  double LogPdf(double x) const;
  double Sample(Rng* rng) const;

  /// Fits (mu, sigma^2) from weighted observations; `floor_variance`
  /// guards against degenerate clusters with a single effective point.
  static Result<GaussianDistribution> FitWeighted(
      const std::vector<double>& values, const std::vector<double>& weights,
      double floor_variance = 1e-8);

 private:
  double mean_;
  double variance_;
};

/// Dirichlet distribution on the K-simplex. In the strength-learning step,
/// p(theta_i | out-neighbors) is Dirichlet with
/// alpha_ik = sum_{e=<v_i,v_j>} gamma(phi(e)) w(e) theta_jk + 1   (Eq. 15),
/// whose normalizer B(alpha_i) is the local partition function Z_i(gamma).
class DirichletDistribution {
 public:
  /// All alpha_k must be > 0.
  static Result<DirichletDistribution> Create(std::vector<double> alpha);

  const std::vector<double>& alpha() const { return alpha_; }
  size_t dim() const { return alpha_.size(); }

  /// log B(alpha): the log-normalizer.
  double LogNormalizer() const;

  /// Log-density at a point on the simplex.
  double LogPdf(const std::vector<double>& theta) const;

  /// Mean vector alpha_k / alpha_0.
  std::vector<double> Mean() const;

  /// Draws from the Dirichlet via normalized Gamma samples.
  std::vector<double> Sample(Rng* rng) const;

 private:
  explicit DirichletDistribution(std::vector<double> alpha)
      : alpha_(std::move(alpha)) {}
  std::vector<double> alpha_;
};

}  // namespace genclus
