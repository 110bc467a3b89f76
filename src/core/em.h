// Cluster optimization (§4.1): EM over Theta and beta with gamma fixed.
//
// Per EM iteration (update rules Eqs. 10-12, all right-hand sides at the
// previous iterate):
//   E-step: responsibilities of each observation,
//     categorical:  p(z_vl = k)  ∝ theta_vk * beta_kl
//     numerical:    p(z_vx = k)  ∝ theta_vk * N(x | mu_k, sigma_k^2)
//   M-step:
//     theta_vk ∝ sum_{e=<v,u>} gamma(phi(e)) w(e) theta_uk
//                + sum over v's observations of responsibilities for k
//     beta_kl  ∝ sum_v c_vl p(z_vl = k)                  (categorical)
//     mu_k, sigma_k^2 = responsibility-weighted moments  (numerical)
//
// Objects without observations are clustered purely from their out-link
// neighborhood — the incomplete-attribute case.
//
// The sweep is organized as a typed-CSR kernel pass: the link term is
// computed per relation as gamma_r * (W_r Theta) through the SpMM kernel
// (linalg/spmm.h) over Network::OutCsr views, and the attribute E-step
// reads a term-major transpose of beta plus hoisted per-cluster Gaussian
// constants (GaussianEvalTable) instead of calling LogPdf per
// (observation, cluster). Like the SpMM row kernels and the serving
// sweeps, the per-row body is one template over K, dispatched once per
// sweep: K in {2, 3, 4, 8} gets a fully unrolled instantiation with its
// per-row scratch in local arrays, any other K the runtime-K one. All
// other scratch state lives in an EmWorkspace that Run allocates once
// and every Step reuses.
//
// Determinism: the node range is cut into fixed-size blocks (a function of
// n only, never of the thread count); each block accumulates its component
// statistics into its own slot and the slots are merged in block order.
// Theta, beta and the Gaussians are therefore bitwise identical for any
// thread count, including pool == nullptr.
//
// ReferenceStep preserves the original per-link traversal of each node's
// OutLinks as a serial reference implementation; tests cross-check the
// kernel path against it.
#pragma once

#include <vector>

#include "common/thread_pool.h"
#include "core/components.h"
#include "core/config.h"
#include "hin/attributes.h"
#include "hin/network.h"
#include "linalg/matrix.h"

namespace genclus {

/// Outcome of one cluster-optimization step.
struct EmStats {
  size_t iterations = 0;
  bool converged = false;
  /// Max |Theta_t - Theta_{t-1}| at the last iteration.
  double final_delta = 0.0;
};

// Per-attribute M-step statistics of one reduction block.
struct EmComponentAccumulator {
  // categorical: counts[k * vocab + l]
  std::vector<double> counts;
  // numerical: per-cluster moment sums
  std::vector<double> weight_sum;
  std::vector<double> value_sum;
  std::vector<double> square_sum;
};

/// EstimateComponents' M-step sums over theta rows [0, rows), one
/// accumulator per attribute; empty (rows == 0) before the first call.
struct EmComponentSums {
  size_t rows = 0;
  std::vector<EmComponentAccumulator> attributes;
};

/// Reusable scratch state for the EM sweep: the new-Theta buffer,
/// per-block component accumulators and reduction partials, per-block
/// responsibility/log-theta scratch, the term-major beta transposes and
/// the Gaussian constant tables. Allocated on first use and reused across
/// Steps (and across Runs, if the caller keeps it); the pre-kernel code
/// reallocated all of this on every Step.
class EmWorkspace {
 public:
  EmWorkspace() = default;

 private:
  friend class EmOptimizer;

  // (Re)sizes everything for the given problem shape; no-op when the
  // shape is unchanged.
  void Prepare(size_t num_nodes, size_t num_clusters,
               const std::vector<const Attribute*>& attributes,
               size_t num_blocks);

  size_t num_nodes_ = 0;
  size_t num_clusters_ = 0;
  size_t num_blocks_ = 0;
  size_t num_attributes_ = 0;

  Matrix new_theta_;
  // block_acc_[block][attribute]
  std::vector<std::vector<EmComponentAccumulator>> block_acc_;
  std::vector<double> block_delta_;
  // Per-block scratch: 3 * K doubles each (responsibilities, log theta_v
  // clamped for the E-step, and the hoisted log theta_vk + log_norm_k base
  // of the Gaussian E-step). The runtime-K sweep uses it; the
  // K-specialized sweeps keep the same three rows in local arrays.
  std::vector<double> scratch_;
  // Term-major transpose of each categorical attribute's beta (vocab x K),
  // so the per-term E-step reads K contiguous doubles.
  std::vector<Matrix> beta_transpose_;
  // Hoisted Gaussian constants of each numerical attribute.
  std::vector<GaussianEvalTable> gaussians_;
};

/// Runs the EM loop of Algorithm 1's Step 1 for fixed gamma.
class EmOptimizer {
 public:
  /// `network`, `attributes` and `config` must outlive the optimizer.
  /// `pool` may be null for single-threaded execution.
  EmOptimizer(const Network* network,
              std::vector<const Attribute*> attributes,
              const GenClusConfig* config, ThreadPool* pool);

  /// Runs EM until convergence or config->em_iterations, updating `theta`
  /// (num_nodes x K, rows on the simplex) and `components` in place. The
  /// overload without a workspace allocates one for the whole run; pass a
  /// workspace to reuse scratch across runs (e.g. outer iterations).
  EmStats Run(const std::vector<double>& gamma, Matrix* theta,
              std::vector<AttributeComponents>* components) const;
  EmStats Run(const std::vector<double>& gamma, Matrix* theta,
              std::vector<AttributeComponents>* components,
              EmWorkspace* workspace) const;

  /// One EM iteration; returns max |Theta_new - Theta_old|. The overload
  /// without a workspace allocates a fresh one per call — prefer passing
  /// a workspace when stepping in a loop.
  double Step(const std::vector<double>& gamma, Matrix* theta,
              std::vector<AttributeComponents>* components) const;
  double Step(const std::vector<double>& gamma, Matrix* theta,
              std::vector<AttributeComponents>* components,
              EmWorkspace* workspace) const;

  /// One EM iteration through the original per-link OutLinks traversal,
  /// kept as the serial reference implementation the kernel path is
  /// tested against, for every K dispatch and block count (em_test).
  double ReferenceStep(const std::vector<double>& gamma, Matrix* theta,
                       std::vector<AttributeComponents>* components) const;

  /// Re-estimates components treating `theta` rows as observation
  /// responsibilities, through the EM M-step's own rule (used by
  /// initialization and ApplyUpdates' component refresh). Adds the
  /// observations of rows [sums->rows, num_nodes) to `sums` in node order,
  /// then writes the components from them; without `sums` it starts from
  /// empty sums. Sums kept from an earlier call therefore give bit for bit
  /// what one call over all rows gives, provided the attributes and the
  /// theta rows those sums read are unchanged.
  void EstimateComponents(const Matrix& theta,
                          std::vector<AttributeComponents>* components,
                          EmComponentSums* sums = nullptr) const;

 private:
  // The blocked sweep body Step dispatches on K: per block, the link
  // term, then per row the log hoists, the categorical and Gaussian
  // E-step, the normalization and the delta, leaving the new rows and the
  // block statistics in `workspace`. kFixedK > 0 is a compile-time
  // cluster count; -1 reads K from the config. Every instantiation
  // computes the same bits.
  template <int kFixedK>
  void FusedSweep(const std::vector<double>& gamma, const double* theta_data,
                  EmWorkspace* workspace) const;

  // Link part of the fused sweep: out rows [begin, end) +=
  // sum_r gamma_r (W_r Theta), one SpmmAccumulate per relation.
  void AccumulateLinkTerm(const std::vector<double>& gamma,
                          const double* theta_data, size_t begin, size_t end,
                          double* out) const;

  // Rebuilds the per-step derived tables (beta transposes, Gaussian
  // constants) in the workspace from the current components.
  void RebuildDerivedTables(
      const std::vector<AttributeComponents>& components,
      EmWorkspace* workspace) const;

  size_t NumBlocks() const;

  // Processes nodes [begin, end) with the original OutLinks traversal:
  // fills new_theta rows and adds component statistics into acc. Serial
  // reference implementation backing ReferenceStep.
  void ProcessNodes(size_t begin, size_t end,
                    const std::vector<double>& gamma, const Matrix& theta,
                    const std::vector<AttributeComponents>& components,
                    Matrix* new_theta,
                    std::vector<EmComponentAccumulator>* acc) const;

  // Writes the new component parameters from merged accumulators.
  void UpdateComponents(const std::vector<EmComponentAccumulator>& acc,
                        std::vector<AttributeComponents>* components) const;

  const Network* network_;
  std::vector<const Attribute*> attributes_;
  const GenClusConfig* config_;
  ThreadPool* pool_;
  bool has_numerical_ = false;
};

}  // namespace genclus
