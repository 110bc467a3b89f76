// Link type strength learning (§4.2): maximize the pseudo-log-likelihood
//
//   g2'(gamma) = sum_i [ sum_{e=<v_i,v_j>} f(theta_i, theta_j, e, gamma)
//                        - log Z_i(gamma) ]  -  ||gamma||^2 / (2 sigma^2)
//
// subject to gamma >= 0 (Eq. 14). The conditional of theta_i given its
// out-neighbors is Dirichlet with alpha_ik = sum_e gamma(phi(e)) w(e)
// theta_jk + 1 (Eq. 15), so Z_i = B(alpha_i); the gradient (Eq. 16) and
// Hessian (Eq. 17) involve digamma and trigamma. g2' is concave
// (Appendix B); we run Newton-Raphson with projection onto gamma >= 0,
// with step damping and a projected-gradient fallback for robustness.
//
// Hot path: EvalAll computes objective, gradient and Hessian in ONE fused
// traversal of the per-node sufficient statistics (sharing the alpha,
// log-gamma, digamma and trigamma evaluations that separate passes would
// recompute), blocked over a ThreadPool with a deterministic block-order
// reduction — the result is bitwise identical for any thread count.
// Learn runs the same traversal for just the terms it reads: gradient and
// Hessian per Newton step, the objective per line-search point.
#pragma once

#include <vector>

#include "common/thread_pool.h"
#include "core/config.h"
#include "hin/network.h"
#include "linalg/matrix.h"

namespace genclus {

/// Outcome of one strength-learning step.
struct StrengthStats {
  size_t iterations = 0;
  bool converged = false;
  /// g2'(gamma) at the returned iterate.
  double objective = 0.0;
  /// True if any Newton step had to fall back to projected gradient.
  bool used_gradient_fallback = false;
};

/// Learns gamma for fixed Theta. Construct once per strength step (the
/// constructor precomputes per-node sufficient statistics in O(|E| K),
/// sharded over `pool` when given), then call Learn.
class StrengthLearner {
 public:
  /// `pool` may be null for single-threaded execution; results are
  /// identical either way.
  StrengthLearner(const Network* network, const Matrix* theta,
                  const GenClusConfig* config, ThreadPool* pool = nullptr);

  /// One fused evaluation of g2' and its derivatives at `gamma`.
  struct Evaluation {
    double objective = 0.0;
    /// Gradient of g2' (Eq. 16); size |R|.
    std::vector<double> gradient;
    /// Hessian of g2' (Eq. 17); |R| x |R|, symmetric negative definite.
    Matrix hessian;
  };

  /// Computes objective, gradient and Hessian together in one traversal.
  /// Deterministic: bitwise identical for any thread count (block partials
  /// are reduced in fixed block order).
  Evaluation EvalAll(const std::vector<double>& gamma) const;

  /// Maximizes g2' starting from `gamma` (paper: the previous outer
  /// iterate). Returns the new gamma; `stats` may be null. Runs on the
  /// fused traversal behind EvalAll — gradient and Hessian for each Newton
  /// step, the objective for the line search — so the learned gamma is
  /// thread-count-invariant and equal to a Newton loop over EvalAll.
  std::vector<double> Learn(const std::vector<double>& gamma,
                            StrengthStats* stats) const;

  // Serial reference implementations: independent single-purpose passes
  // with their own arithmetic (alpha recomputed per call, digamma inside
  // the inner loops, LogMultivariateBeta), NOT built on the fused
  // traversal — the tests comparing them against EvalAll genuinely
  // cross-check it. Learn does not call them.

  /// g2'(gamma): the pseudo-log-likelihood plus the Gaussian prior term.
  double Objective(const std::vector<double>& gamma) const;

  /// Gradient of g2' (Eq. 16); size |R|.
  std::vector<double> Gradient(const std::vector<double>& gamma) const;

  /// Hessian of g2' (Eq. 17); |R| x |R|, symmetric negative definite.
  Matrix Hessian(const std::vector<double>& gamma) const;

 private:
  // alpha_ik = 1 + sum_j gamma(r_j) s_j[k] for stat node `node` (Eq. 15);
  // reference-path helper.
  void ComputeAlpha(size_t node, const std::vector<double>& gamma,
                    std::vector<double>* alpha) const;

  // Sufficient statistics live in flat arenas indexed by "group": one
  // group is (node with out-degree >= 1, relation occurring among its
  // out-links). Node i owns groups [node_group_offsets_[i],
  // node_group_offsets_[i + 1]); group g's s-vector is the K doubles at
  // group_s_[g * K].

  size_t num_stat_nodes() const { return node_group_offsets_.size() - 1; }

  // Accumulates nodes [begin, end)'s contribution to the objective (when
  // `objective`) and to gradient + Hessian (when `derivatives`) of the
  // data term into *out. The prior is NOT applied here. Each term's
  // arithmetic is identical whichever others are requested.
  void AccumulateRange(size_t begin, size_t end,
                       const std::vector<double>& gamma, bool objective,
                       bool derivatives, Evaluation* out) const;

  // Blocked reduction over all stat nodes (via ParallelForReduce), prior
  // applied. `objective` false leaves the objective 0 and skips its
  // log-gamma calls (Learn's Newton step); `derivatives` false leaves
  // gradient/hessian empty (the line search).
  Evaluation Reduce(const std::vector<double>& gamma, bool objective,
                    bool derivatives) const;

  // Fused parallel objective-only evaluation (line-search path).
  double FusedObjective(const std::vector<double>& gamma) const;

  const Network* network_;
  const Matrix* theta_;
  const GenClusConfig* config_;
  ThreadPool* pool_;
  size_t num_relations_;
  size_t num_clusters_;

  std::vector<size_t> node_group_offsets_;  // size num_stat_nodes() + 1
  std::vector<LinkTypeId> group_relation_;
  // total weight of the group: sum_{e of relation r} w(e).
  std::vector<double> group_weight_;
  // coefficient of gamma(r) in the feature-function sum:
  // sum_{e of relation r} w(e) * sum_k theta_jk log theta_ik.
  std::vector<double> group_f_coeff_;
  // s-vectors, K doubles per group: sum_{e of relation r} w(e) * theta_target.
  std::vector<double> group_s_;
};

}  // namespace genclus
