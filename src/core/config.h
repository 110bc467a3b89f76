// Configuration for the GenClus algorithm (Algorithm 1). Defaults follow
// the paper's experimental settings where stated (sigma = 0.1, all-ones
// initial gamma, 10 outer iterations).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace genclus {

/// How Gaussian component means are initialized for numerical attributes.
enum class NumericalInit {
  /// Cluster k starts at the k-th quantile of every numerical attribute.
  /// Aligns cluster identities across attributes carried by disjoint
  /// object types, but cannot separate clusters whose marginal means
  /// coincide (e.g. the paper's weather Setting 2).
  kQuantile,
  /// Cluster means drawn from random observed values (k-means++-flavored
  /// diversity through the multi-seed initialization).
  kRandomObservation,
};

/// How the initial membership matrix Theta'_0 is chosen. §4.3 leaves this
/// open ("random assignments, or start with several random seeds ... and
/// choose the one with the highest value of the objective function g1").
enum class ThetaInit {
  /// Random simplex rows per seed; best-of-seeds by g1.
  kRandomSeeds,
  /// Additionally score a k-means candidate: interpolate the numerical
  /// attributes to dense per-node features (neighbor means, as the
  /// baselines do), run k-means, and concentrate each node's membership
  /// on its assigned cluster. Standard mixture-model initialization; it
  /// finds the coordinated basin in settings like the paper's weather
  /// Setting 2 where marginal attribute values alone cannot identify the
  /// clusters. No effect when the attribute set has no numerical
  /// attributes.
  kRandomSeedsPlusKMeans,
};

struct GenClusConfig {
  /// Number of clusters K. Must be >= 2.
  size_t num_clusters = 4;

  /// Outer iterations t alternating cluster optimization and strength
  /// learning (paper uses 10 for DBLP, 5 for the weather networks).
  size_t outer_iterations = 10;

  /// Stop the outer loop early when max |gamma_t - gamma_{t-1}| falls
  /// below this.
  double outer_tolerance = 1e-4;

  /// Maximum EM iterations per cluster-optimization step (t1).
  size_t em_iterations = 50;

  /// EM converges when max |Theta_t - Theta_{t-1}| drops below this.
  double em_tolerance = 1e-4;

  /// Maximum Newton-Raphson iterations per strength-learning step (t2).
  size_t newton_iterations = 50;

  /// Newton converges when max |gamma_s - gamma_{s-1}| drops below this.
  double newton_tolerance = 1e-6;

  /// Standard deviation of the zero-mean Gaussian prior on gamma
  /// (the regularizer ||gamma||^2 / (2 sigma^2); paper sets 0.1).
  ///
  /// Note: with sigma = 0.1 the prior is strong; the paper's learned
  /// strengths (e.g. 14.46) imply the data term dominates for real
  /// networks, which we observe as well.
  double gamma_prior_sigma = 0.1;

  /// Floor applied to membership probabilities before logs (Eq. 6 needs
  /// log theta).
  double theta_floor = 1e-12;

  /// Additive smoothing for categorical component updates, as a fraction
  /// of the per-cluster total count mass (keeps the E-step defined for
  /// terms unseen in a cluster).
  double beta_smoothing = 1e-6;

  /// Lower bound for Gaussian component variances.
  double variance_floor = 1e-6;

  /// Number of random starting points for Theta; the one with the best
  /// objective g1 after `init_em_steps` EM steps is kept (§4.3's
  /// "several random seeds" initialization). 1 = plain random init.
  size_t num_init_seeds = 1;

  /// EM steps used to score each tentative seed.
  size_t init_em_steps = 3;

  /// Initialization strategy for Gaussian components; random observations
  /// by default, with the multi-seed objective selecting the best start.
  NumericalInit numerical_init = NumericalInit::kRandomObservation;

  /// Theta initialization strategy (see ThetaInit).
  ThetaInit theta_init = ThetaInit::kRandomSeedsPlusKMeans;

  /// Master RNG seed; every run with the same seed is bit-reproducible.
  uint64_t seed = 42;

  /// Worker threads for the EM step. 0 = hardware concurrency.
  size_t num_threads = 1;

  /// When false, gamma stays at its initial value (the "no strength
  /// learning" ablation; baselines effectively run in this mode).
  bool learn_strengths = true;

  /// Initial strength per link type; empty = all ones (paper default).
  std::vector<double> initial_gamma;

  /// Checks every field for sanity: num_clusters >= 2, iteration budgets
  /// and seed counts >= 1, tolerances finite and non-negative, floors and
  /// the gamma prior positive, and initial_gamma (when non-empty) sized
  /// for `num_link_types` with finite non-negative entries. Called at the
  /// top of Engine::Fit and Engine::Refit; surfaced here so callers can
  /// reject a bad config before paying for data loading.
  Status Validate(size_t num_link_types) const;
};

}  // namespace genclus
