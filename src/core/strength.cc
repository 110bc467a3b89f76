#include "core/strength.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "common/check.h"
#include "core/feature.h"
#include "linalg/solve.h"
#include "prob/simplex.h"
#include "prob/special_functions.h"

namespace genclus {

namespace {

// Nodes per reduction block. Fixed (independent of the thread count) so
// block boundaries — and therefore the merged floating-point result — are
// invariant to how many workers execute them.
constexpr size_t kReduceGrain = 64;

}  // namespace

StrengthLearner::StrengthLearner(const Network* network, const Matrix* theta,
                                 const GenClusConfig* config,
                                 ThreadPool* pool)
    : network_(network), theta_(theta), config_(config), pool_(pool) {
  GENCLUS_CHECK(network_ != nullptr && theta_ != nullptr &&
                config_ != nullptr);
  GENCLUS_CHECK_EQ(theta_->rows(), network_->num_nodes());
  num_relations_ = network_->schema().num_link_types();
  num_clusters_ = theta_->cols();

  // Pass 1 (serial, O(|V| R)): find nodes with out-links and count each
  // one's relation groups, one per relation whose row at the node is
  // non-empty.
  std::vector<RelationCsr> rows(num_relations_);
  for (LinkTypeId r = 0; r < num_relations_; ++r) {
    rows[r] = network_->OutCsr(r);
  }
  std::vector<NodeId> stat_nodes;
  node_group_offsets_.push_back(0);
  size_t total_groups = 0;
  for (NodeId v = 0; v < network_->num_nodes(); ++v) {
    size_t groups = 0;
    for (const RelationCsr& csr : rows) {
      if (csr.row_offsets[v + 1] != csr.row_offsets[v]) ++groups;
    }
    if (groups == 0) continue;
    stat_nodes.push_back(v);
    total_groups += groups;
    node_group_offsets_.push_back(total_groups);
  }

  // Pass 2 (parallel, O(|E| K)): fill the flat arenas, walking each
  // node's relation rows in relation order. Each node writes only its own
  // group range, so shards never overlap and the result is independent of
  // the sharding.
  group_relation_.assign(total_groups, kInvalidLinkType);
  group_weight_.assign(total_groups, 0.0);
  group_f_coeff_.assign(total_groups, 0.0);
  group_s_.assign(total_groups * num_clusters_, 0.0);
  const auto fill = [&](size_t begin, size_t end) {
    std::vector<double> log_theta_v(num_clusters_);
    for (size_t i = begin; i < end; ++i) {
      const NodeId v = stat_nodes[i];
      // CrossEntropyScore's logs of theta_v, once per node, not per link.
      FlooredLogTheta({theta_->Row(v), num_clusters_}, log_theta_v);
      size_t g = node_group_offsets_[i];
      for (LinkTypeId r = 0; r < num_relations_; ++r) {
        const RelationCsr& csr = rows[r];
        const size_t row_begin = csr.row_offsets[v];
        const size_t row_end = csr.row_offsets[v + 1];
        if (row_begin == row_end) continue;
        double* s = group_s_.data() + g * num_clusters_;
        double total_weight = 0.0;
        double f_coeff = 0.0;
        for (size_t j = row_begin; j < row_end; ++j) {
          const double weight = csr.weights[j];
          const std::span<const double> theta_u(
              theta_->Row(csr.neighbors[j]), num_clusters_);
          for (size_t k = 0; k < num_clusters_; ++k) {
            s[k] += weight * theta_u[k];
          }
          total_weight += weight;
          f_coeff += weight * CrossEntropyScoreFromLogs(log_theta_v, theta_u);
        }
        group_relation_[g] = r;
        group_weight_[g] = total_weight;
        group_f_coeff_[g] = f_coeff;
        ++g;
      }
      GENCLUS_DCHECK(g == node_group_offsets_[i + 1]);
    }
  };
  if (pool_ != nullptr && pool_->num_threads() > 1) {
    pool_->ParallelFor(stat_nodes.size(),
                       [&](size_t /*shard*/, size_t begin, size_t end) {
                         fill(begin, end);
                       });
  } else {
    fill(0, stat_nodes.size());
  }
}

void StrengthLearner::AccumulateRange(size_t begin, size_t end,
                                      const std::vector<double>& gamma,
                                      bool objective, bool derivatives,
                                      Evaluation* out) const {
  std::vector<double> alpha(num_clusters_);
  std::vector<double> psi(num_clusters_);
  std::vector<double> psi1(num_clusters_);
  for (size_t i = begin; i < end; ++i) {
    const size_t gbegin = node_group_offsets_[i];
    const size_t gend = node_group_offsets_[i + 1];

    // alpha_k = 1 + sum_j gamma(r_j) s_j[k] (Eq. 15); the feature part of
    // the objective rides along in the same sweep.
    std::fill(alpha.begin(), alpha.end(), 1.0);
    for (size_t g = gbegin; g < gend; ++g) {
      const double gm = gamma[group_relation_[g]];
      if (objective) out->objective += gm * group_f_coeff_[g];
      if (gm == 0.0) continue;
      const double* s = group_s_.data() + g * num_clusters_;
      for (size_t k = 0; k < num_clusters_; ++k) alpha[k] += gm * s[k];
    }
    double alpha0 = 0.0;
    double log_gamma_sum = 0.0;
    for (size_t k = 0; k < num_clusters_; ++k) {
      alpha0 += alpha[k];
      if (objective) log_gamma_sum += LogGamma(alpha[k]);
    }
    // - log Z_i = - log B(alpha_i).
    if (objective) out->objective -= log_gamma_sum - LogGamma(alpha0);

    if (!derivatives) continue;

    // Each special function exactly once per (node, k): shared between
    // the gradient's digamma terms and the Hessian's trigamma terms.
    const double psi_alpha0 = Digamma(alpha0);
    const double psi1_alpha0 = Trigamma(alpha0);
    for (size_t k = 0; k < num_clusters_; ++k) {
      psi[k] = Digamma(alpha[k]);
      psi1[k] = Trigamma(alpha[k]);
    }
    for (size_t j1 = gbegin; j1 < gend; ++j1) {
      const LinkTypeId r1 = group_relation_[j1];
      const double* s1 = group_s_.data() + j1 * num_clusters_;
      // d logB(alpha)/d gamma(r) = sum_k psi(alpha_k) s_k
      //                            - psi(alpha_0) * W    (Eq. 16).
      double dlogb = 0.0;
      for (size_t k = 0; k < num_clusters_; ++k) {
        dlogb += psi[k] * s1[k];
      }
      dlogb -= psi_alpha0 * group_weight_[j1];
      out->gradient[r1] += group_f_coeff_[j1] - dlogb;

      for (size_t j2 = j1; j2 < gend; ++j2) {
        // Eq. 17 per node: -sum_k psi'(alpha_k) s1_k s2_k
        //                  + psi'(alpha_0) W1 W2.
        const double* s2 = group_s_.data() + j2 * num_clusters_;
        double val = 0.0;
        for (size_t k = 0; k < num_clusters_; ++k) {
          val -= psi1[k] * s1[k] * s2[k];
        }
        val += psi1_alpha0 * group_weight_[j1] * group_weight_[j2];
        const LinkTypeId r2 = group_relation_[j2];
        out->hessian(r1, r2) += val;
        if (r1 != r2) out->hessian(r2, r1) += val;
      }
    }
  }
}

StrengthLearner::Evaluation StrengthLearner::Reduce(
    const std::vector<double>& gamma, bool objective,
    bool derivatives) const {
  GENCLUS_CHECK_EQ(gamma.size(), num_relations_);
  const auto make = [this, derivatives] {
    Evaluation e;
    if (derivatives) {
      e.gradient.assign(num_relations_, 0.0);
      e.hessian = Matrix(num_relations_, num_relations_);
    }
    return e;
  };
  Evaluation total = ParallelForReduce<Evaluation>(
      pool_, num_stat_nodes(), kReduceGrain, make,
      [&](Evaluation& state, size_t begin, size_t end) {
        AccumulateRange(begin, end, gamma, objective, derivatives, &state);
      },
      [this, derivatives](Evaluation& into, Evaluation&& from) {
        into.objective += from.objective;
        if (derivatives) {
          for (size_t r = 0; r < num_relations_; ++r) {
            into.gradient[r] += from.gradient[r];
          }
          into.hessian.AddScaled(from.hessian, 1.0);
        }
      });

  const double sigma2 =
      config_->gamma_prior_sigma * config_->gamma_prior_sigma;
  if (objective) {
    for (double g : gamma) total.objective -= g * g / (2.0 * sigma2);
  }
  if (derivatives) {
    for (size_t r = 0; r < num_relations_; ++r) {
      total.gradient[r] -= gamma[r] / sigma2;
      total.hessian(r, r) -= 1.0 / sigma2;
    }
  }
  return total;
}

StrengthLearner::Evaluation StrengthLearner::EvalAll(
    const std::vector<double>& gamma) const {
  return Reduce(gamma, /*objective=*/true, /*derivatives=*/true);
}

double StrengthLearner::FusedObjective(
    const std::vector<double>& gamma) const {
  return Reduce(gamma, /*objective=*/true, /*derivatives=*/false).objective;
}

// The reference implementations below are deliberately NOT built on
// AccumulateRange: each is its own traversal with its own arithmetic
// (alpha recomputed per pass, digamma evaluated inside the inner loops,
// LogMultivariateBeta for the partition function), so the tests comparing
// them against EvalAll genuinely cross-check the fused path.

void StrengthLearner::ComputeAlpha(size_t node,
                                   const std::vector<double>& gamma,
                                   std::vector<double>* alpha) const {
  alpha->assign(num_clusters_, 1.0);
  for (size_t g = node_group_offsets_[node];
       g < node_group_offsets_[node + 1]; ++g) {
    const double gm = gamma[group_relation_[g]];
    if (gm == 0.0) continue;
    const double* s = group_s_.data() + g * num_clusters_;
    for (size_t k = 0; k < num_clusters_; ++k) {
      (*alpha)[k] += gm * s[k];
    }
  }
}

double StrengthLearner::Objective(const std::vector<double>& gamma) const {
  GENCLUS_CHECK_EQ(gamma.size(), num_relations_);
  double total = 0.0;
  std::vector<double> alpha;
  for (size_t i = 0; i < num_stat_nodes(); ++i) {
    for (size_t g = node_group_offsets_[i]; g < node_group_offsets_[i + 1];
         ++g) {
      total += gamma[group_relation_[g]] * group_f_coeff_[g];
    }
    ComputeAlpha(i, gamma, &alpha);
    total -= LogMultivariateBeta(alpha);
  }
  const double sigma2 =
      config_->gamma_prior_sigma * config_->gamma_prior_sigma;
  for (double g : gamma) total -= g * g / (2.0 * sigma2);
  return total;
}

std::vector<double> StrengthLearner::Gradient(
    const std::vector<double>& gamma) const {
  GENCLUS_CHECK_EQ(gamma.size(), num_relations_);
  std::vector<double> grad(num_relations_, 0.0);
  std::vector<double> alpha;
  for (size_t i = 0; i < num_stat_nodes(); ++i) {
    ComputeAlpha(i, gamma, &alpha);
    double alpha0 = 0.0;
    for (double a : alpha) alpha0 += a;
    const double psi_alpha0 = Digamma(alpha0);
    for (size_t j = node_group_offsets_[i]; j < node_group_offsets_[i + 1];
         ++j) {
      const double* s = group_s_.data() + j * num_clusters_;
      double dlogb = 0.0;
      for (size_t k = 0; k < num_clusters_; ++k) {
        dlogb += Digamma(alpha[k]) * s[k];
      }
      dlogb -= psi_alpha0 * group_weight_[j];
      grad[group_relation_[j]] += group_f_coeff_[j] - dlogb;
    }
  }
  const double sigma2 =
      config_->gamma_prior_sigma * config_->gamma_prior_sigma;
  for (size_t r = 0; r < num_relations_; ++r) {
    grad[r] -= gamma[r] / sigma2;
  }
  return grad;
}

Matrix StrengthLearner::Hessian(const std::vector<double>& gamma) const {
  GENCLUS_CHECK_EQ(gamma.size(), num_relations_);
  Matrix h(num_relations_, num_relations_);
  std::vector<double> alpha;
  std::vector<double> psi1(num_clusters_);
  for (size_t i = 0; i < num_stat_nodes(); ++i) {
    ComputeAlpha(i, gamma, &alpha);
    double alpha0 = 0.0;
    for (double a : alpha) alpha0 += a;
    const double psi1_alpha0 = Trigamma(alpha0);
    for (size_t k = 0; k < num_clusters_; ++k) psi1[k] = Trigamma(alpha[k]);

    for (size_t j1 = node_group_offsets_[i];
         j1 < node_group_offsets_[i + 1]; ++j1) {
      const double* s1 = group_s_.data() + j1 * num_clusters_;
      for (size_t j2 = j1; j2 < node_group_offsets_[i + 1]; ++j2) {
        const double* s2 = group_s_.data() + j2 * num_clusters_;
        double val = 0.0;
        for (size_t k = 0; k < num_clusters_; ++k) {
          val -= psi1[k] * s1[k] * s2[k];
        }
        val += psi1_alpha0 * group_weight_[j1] * group_weight_[j2];
        const LinkTypeId r1 = group_relation_[j1];
        const LinkTypeId r2 = group_relation_[j2];
        h(r1, r2) += val;
        if (r1 != r2) h(r2, r1) += val;
      }
    }
  }
  const double sigma2 =
      config_->gamma_prior_sigma * config_->gamma_prior_sigma;
  for (size_t r = 0; r < num_relations_; ++r) {
    h(r, r) -= 1.0 / sigma2;
  }
  return h;
}

std::vector<double> StrengthLearner::Learn(const std::vector<double>& gamma,
                                           StrengthStats* stats) const {
  GENCLUS_CHECK_EQ(gamma.size(), num_relations_);
  std::vector<double> current = gamma;
  for (double& g : current) g = std::max(0.0, g);

  StrengthStats local;
  double current_obj = FusedObjective(current);

  for (size_t iter = 0; iter < config_->newton_iterations; ++iter) {
    local.iterations = iter + 1;
    // Gradient and Hessian only: g2' at `current` is current_obj already,
    // from the line search that accepted it (or from the start above).
    const Evaluation eval =
        Reduce(current, /*objective=*/false, /*derivatives=*/true);

    // Newton direction: solve H * delta = grad, step gamma - delta.
    // H is negative definite, so -delta is an ascent direction.
    std::vector<double> next;
    bool have_newton = false;
    auto solve = SolveLinearSystem(eval.hessian, eval.gradient);
    if (solve.ok()) {
      next = current;
      bool finite = true;
      for (size_t r = 0; r < num_relations_; ++r) {
        next[r] -= (*solve)[r];
        if (!std::isfinite(next[r])) finite = false;
      }
      have_newton = finite;
    }
    if (!have_newton) {
      // Fallback: projected gradient ascent with a conservative step.
      local.used_gradient_fallback = true;
      double gnorm = Norm2(eval.gradient);
      const double step = gnorm > 0.0 ? 1.0 / (1.0 + gnorm) : 0.0;
      next = current;
      for (size_t r = 0; r < num_relations_; ++r) {
        next[r] += step * eval.gradient[r];
      }
    }
    for (double& g : next) g = std::max(0.0, g);  // projection (§4.2 step 2)

    // Damping: the projected Newton step is not guaranteed to ascend, so
    // backtrack toward the current iterate until the objective improves.
    double next_obj = FusedObjective(next);
    double shrink = 0.5;
    size_t backtracks = 0;
    while (next_obj < current_obj - 1e-12 && backtracks < 40) {
      for (size_t r = 0; r < num_relations_; ++r) {
        next[r] = current[r] + shrink * (next[r] - current[r]);
      }
      next_obj = FusedObjective(next);
      ++backtracks;
    }
    if (next_obj < current_obj - 1e-12) {
      // No ascent possible along this direction: accept the current point.
      local.converged = true;
      break;
    }

    double delta = 0.0;
    for (size_t r = 0; r < num_relations_; ++r) {
      delta = std::max(delta, std::fabs(next[r] - current[r]));
    }
    current = std::move(next);
    current_obj = next_obj;
    if (delta < config_->newton_tolerance) {
      local.converged = true;
      break;
    }
  }
  local.objective = current_obj;
  if (stats != nullptr) *stats = local;
  return current;
}

}  // namespace genclus
