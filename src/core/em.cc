#include "core/em.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "linalg/spmm.h"
#include "prob/simplex.h"
#include "prob/special_functions.h"

namespace genclus {

namespace {

// Nodes per reduction block. Fixed (independent of the thread count) so
// block boundaries — and therefore the merged floating-point result — are
// invariant to how many workers execute them (same contract as the
// strength learner's ParallelForReduce grain).
constexpr size_t kEmBlockGrain = 128;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Normalizes `mix` onto the simplex into `out` (aliasing allowed), with
// the uniform fallback for isolated attribute-free nodes and the
// theta_floor clamp. Shared by the kernel path and the reference path so
// both apply the identical arithmetic.
inline void NormalizeOntoSimplex(const double* mix, size_t num_clusters,
                                 double floor, double* out) {
  double total = 0.0;
  for (size_t k = 0; k < num_clusters; ++k) total += mix[k];
  if (total <= 0.0 || !std::isfinite(total)) {
    const double u = 1.0 / static_cast<double>(num_clusters);
    for (size_t k = 0; k < num_clusters; ++k) out[k] = u;
    return;
  }
  double clamped_total = 0.0;
  for (size_t k = 0; k < num_clusters; ++k) {
    double val = mix[k] / total;
    if (val < floor) val = floor;
    out[k] = val;
    clamped_total += val;
  }
  for (size_t k = 0; k < num_clusters; ++k) out[k] /= clamped_total;
}

// Zeroed M-step accumulators, one per attribute, sized for its kind.
std::vector<EmComponentAccumulator> ZeroAccumulators(
    const std::vector<const Attribute*>& attributes, size_t num_clusters) {
  std::vector<EmComponentAccumulator> acc(attributes.size());
  for (size_t t = 0; t < attributes.size(); ++t) {
    if (attributes[t]->kind() == AttributeKind::kCategorical) {
      acc[t].counts.assign(num_clusters * attributes[t]->vocab_size(), 0.0);
    } else {
      acc[t].weight_sum.assign(num_clusters, 0.0);
      acc[t].value_sum.assign(num_clusters, 0.0);
      acc[t].square_sum.assign(num_clusters, 0.0);
    }
  }
  return acc;
}

void ZeroAccumulator(EmComponentAccumulator* acc) {
  std::fill(acc->counts.begin(), acc->counts.end(), 0.0);
  std::fill(acc->weight_sum.begin(), acc->weight_sum.end(), 0.0);
  std::fill(acc->value_sum.begin(), acc->value_sum.end(), 0.0);
  std::fill(acc->square_sum.begin(), acc->square_sum.end(), 0.0);
}

void MergeAccumulator(EmComponentAccumulator* into,
                      const EmComponentAccumulator& from) {
  for (size_t i = 0; i < into->counts.size(); ++i) {
    into->counts[i] += from.counts[i];
  }
  for (size_t i = 0; i < into->weight_sum.size(); ++i) {
    into->weight_sum[i] += from.weight_sum[i];
    into->value_sum[i] += from.value_sum[i];
    into->square_sum[i] += from.square_sum[i];
  }
}

}  // namespace

void EmWorkspace::Prepare(size_t num_nodes, size_t num_clusters,
                          const std::vector<const Attribute*>& attributes,
                          size_t num_blocks) {
  bool shape_unchanged =
      num_nodes_ == num_nodes && num_clusters_ == num_clusters &&
      num_blocks_ == num_blocks && num_attributes_ == attributes.size();
  for (size_t t = 0; shape_unchanged && t < attributes.size(); ++t) {
    if (attributes[t]->kind() == AttributeKind::kCategorical) {
      shape_unchanged = beta_transpose_[t].rows() == attributes[t]->vocab_size();
    } else {
      shape_unchanged = beta_transpose_[t].empty();
    }
  }
  if (shape_unchanged) return;
  num_nodes_ = num_nodes;
  num_clusters_ = num_clusters;
  num_blocks_ = num_blocks;
  num_attributes_ = attributes.size();

  new_theta_ = Matrix(num_nodes, num_clusters);
  block_delta_.assign(num_blocks, 0.0);
  scratch_.assign(num_blocks * 3 * num_clusters, 0.0);

  block_acc_.assign(num_blocks, ZeroAccumulators(attributes, num_clusters));

  beta_transpose_.assign(attributes.size(), Matrix());
  gaussians_.assign(attributes.size(), GaussianEvalTable());
  for (size_t t = 0; t < attributes.size(); ++t) {
    if (attributes[t]->kind() == AttributeKind::kCategorical) {
      beta_transpose_[t] = Matrix(attributes[t]->vocab_size(), num_clusters);
    }
  }
}

EmOptimizer::EmOptimizer(const Network* network,
                         std::vector<const Attribute*> attributes,
                         const GenClusConfig* config, ThreadPool* pool)
    : network_(network),
      attributes_(std::move(attributes)),
      config_(config),
      pool_(pool) {
  GENCLUS_CHECK(network_ != nullptr);
  GENCLUS_CHECK(config_ != nullptr);
  GENCLUS_CHECK_GE(config_->num_clusters, 2u);
  for (const Attribute* a : attributes_) {
    GENCLUS_CHECK(a != nullptr);
    GENCLUS_CHECK_EQ(a->num_nodes(), network_->num_nodes());
    if (a->kind() == AttributeKind::kNumerical) has_numerical_ = true;
  }
}

size_t EmOptimizer::NumBlocks() const {
  const size_t n = network_->num_nodes();
  // At least one block so the merged accumulators exist even for an empty
  // node range (UpdateComponents still applies its empty-cluster rules;
  // ForEachFixedGrainBlock runs nothing for n == 0, so the sweeps zero
  // that block's slots explicitly in that case).
  return std::max<size_t>(1, (n + kEmBlockGrain - 1) / kEmBlockGrain);
}

void EmOptimizer::RebuildDerivedTables(
    const std::vector<AttributeComponents>& components,
    EmWorkspace* ws) const {
  for (size_t t = 0; t < attributes_.size(); ++t) {
    if (attributes_[t]->kind() == AttributeKind::kCategorical) {
      const Matrix& beta = components[t].beta();
      Matrix& beta_t = ws->beta_transpose_[t];
      for (size_t k = 0; k < beta.rows(); ++k) {
        const double* row = beta.Row(k);
        for (size_t l = 0; l < beta.cols(); ++l) beta_t(l, k) = row[l];
      }
    } else {
      ws->gaussians_[t].Rebuild(components[t]);
    }
  }
}

void EmOptimizer::AccumulateLinkTerm(const std::vector<double>& gamma,
                                     const double* theta_data, size_t begin,
                                     size_t end, double* out) const {
  const size_t num_clusters = config_->num_clusters;
  for (LinkTypeId r = 0; r < gamma.size(); ++r) {
    if (gamma[r] == 0.0) continue;
    const RelationCsr adj = network_->OutCsr(r);
    const CsrMatrixView view{adj.row_offsets, adj.neighbors, adj.weights};
    SpmmAccumulate(view, gamma[r], theta_data, num_clusters, begin, end, out);
  }
}

template <int kFixedK>
void EmOptimizer::FusedSweep(const std::vector<double>& gamma,
                             const double* theta_data, EmWorkspace* ws) const {
  const size_t num_clusters = kFixedK > 0
                                  ? static_cast<size_t>(kFixedK)
                                  : config_->num_clusters;
  const size_t n = network_->num_nodes();
  double* new_theta_data = ws->new_theta_.data().data();

  ForEachFixedGrainBlock(pool_, n, kEmBlockGrain, [&](size_t b, size_t begin,
                                                      size_t end) {
    std::vector<EmComponentAccumulator>& acc = ws->block_acc_[b];
    for (auto& a : acc) ZeroAccumulator(&a);
    // Per-row scratch, 3 * K doubles: a local array the compiler can keep
    // in registers when K is fixed, the block's workspace slot otherwise.
    double fixed_scratch[kFixedK > 0 ? 3 * kFixedK : 1] = {};
    double* resp = kFixedK > 0 ? fixed_scratch
                               : ws->scratch_.data() + b * 3 * num_clusters;
    double* log_e = resp + num_clusters;  // E-step clamp (1e-300)
    double* base = log_e + num_clusters;  // log theta_vk + log_norm_k

    // Link part of Eq. 10/11/12 as a typed-CSR SpMM: per relation r,
    // new_theta rows of this block += gamma_r * (W_r Theta).
    std::fill(new_theta_data + begin * num_clusters,
              new_theta_data + end * num_clusters, 0.0);
    AccumulateLinkTerm(gamma, theta_data, begin, end, new_theta_data);

    double local_delta = 0.0;
    for (size_t vi = begin; vi < end; ++vi) {
      const NodeId v = static_cast<NodeId>(vi);
      const double* theta_v = theta_data + vi * num_clusters;
      double* out = new_theta_data + vi * num_clusters;

      if (has_numerical_) {
        for (size_t k = 0; k < num_clusters; ++k) {
          const double tk = theta_v[k] > 0.0 ? theta_v[k] : 1e-300;
          log_e[k] = std::log(tk);
        }
      }

      // Attribute part: responsibilities of v's own observations.
      for (size_t t = 0; t < attributes_.size(); ++t) {
        const Attribute& attr = *attributes_[t];
        if (attr.kind() == AttributeKind::kCategorical) {
          const Matrix& beta_t = ws->beta_transpose_[t];
          const size_t vocab = attr.vocab_size();
          double* counts = acc[t].counts.data();
          for (const TermCount& tc : attr.TermCounts(v)) {
            const double* beta_term = beta_t.Row(tc.term);
            double total = 0.0;
            for (size_t k = 0; k < num_clusters; ++k) {
              resp[k] = theta_v[k] * beta_term[k];
              total += resp[k];
            }
            if (total <= 0.0) {
              // All clusters assign zero mass (possible with zero
              // smoothing): treat the observation as uninformative.
              const double u = 1.0 / static_cast<double>(num_clusters);
              for (size_t k = 0; k < num_clusters; ++k) resp[k] = u;
              total = 1.0;
            }
            const double scale = tc.count / total;  // one division per obs
            for (size_t k = 0; k < num_clusters; ++k) {
              const double r = resp[k] * scale;
              out[k] += r;
              counts[k * vocab + tc.term] += r;
            }
          }
        } else {
          const std::vector<double>& values = attr.Values(v);
          if (values.empty()) continue;
          const GaussianEvalTable& table = ws->gaussians_[t];
          const double* mean = table.means().data();
          const double* neg_half_inv_var = table.neg_half_inv_vars().data();
          const double* log_norm = table.log_norms().data();
          EmComponentAccumulator& a = acc[t];
          // log theta_vk + log_norm_k is observation-invariant: hoist it so
          // the per-observation logit is two fused ops per cluster.
          for (size_t k = 0; k < num_clusters; ++k) {
            base[k] = log_e[k] + log_norm[k];
          }
          for (double x : values) {
            // Log-space for numerical stability of the Gaussian E-step;
            // log theta_v and the Gaussian constants are hoisted, so the
            // inner loop is pure arithmetic.
            double max_log = kNegInf;
            size_t arg_max = 0;
            for (size_t k = 0; k < num_clusters; ++k) {
              const double d = x - mean[k];
              resp[k] = base[k] + neg_half_inv_var[k] * d * d;
              if (resp[k] > max_log) {
                max_log = resp[k];
                arg_max = k;
              }
            }
            // exp(0) is exactly 1, so the max cluster's exponential is
            // free — one std::exp saved per observation.
            double total = 0.0;
            for (size_t k = 0; k < num_clusters; ++k) {
              resp[k] =
                  k == arg_max ? 1.0 : std::exp(resp[k] - max_log);
              total += resp[k];
            }
            const double inv_total = 1.0 / total;
            for (size_t k = 0; k < num_clusters; ++k) {
              const double r = resp[k] * inv_total;
              out[k] += r;
              a.weight_sum[k] += r;
              a.value_sum[k] += r * x;
              a.square_sum[k] += r * x * x;
            }
          }
        }
      }

      NormalizeOntoSimplex(out, num_clusters, config_->theta_floor, out);
      for (size_t k = 0; k < num_clusters; ++k) {
        local_delta = std::max(local_delta, std::fabs(out[k] - theta_v[k]));
      }
    }
    ws->block_delta_[b] = local_delta;
  });
}

void EmOptimizer::ProcessNodes(
    size_t begin, size_t end, const std::vector<double>& gamma,
    const Matrix& theta, const std::vector<AttributeComponents>& components,
    Matrix* new_theta, std::vector<EmComponentAccumulator>* acc) const {
  const size_t num_clusters = config_->num_clusters;
  std::vector<double> mix(num_clusters);   // theta_v contributions
  std::vector<double> resp(num_clusters);  // per-observation responsibilities

  for (size_t vi = begin; vi < end; ++vi) {
    const NodeId v = static_cast<NodeId>(vi);
    std::fill(mix.begin(), mix.end(), 0.0);

    // Link part of Eq. 10/11/12: out-neighbors weighted by link weight and
    // relation strength.
    for (const LinkEntry& e : network_->OutLinks(v)) {
      const double coeff = gamma[e.type] * e.weight;
      if (coeff == 0.0) continue;
      const double* theta_u = theta.Row(e.neighbor);
      for (size_t k = 0; k < num_clusters; ++k) {
        mix[k] += coeff * theta_u[k];
      }
    }

    // Attribute part: responsibilities of v's own observations.
    const double* theta_v = theta.Row(v);
    for (size_t t = 0; t < attributes_.size(); ++t) {
      const Attribute& attr = *attributes_[t];
      const AttributeComponents& comp = components[t];
      if (attr.kind() == AttributeKind::kCategorical) {
        const Matrix& beta = comp.beta();
        const size_t vocab = attr.vocab_size();
        for (const TermCount& tc : attr.TermCounts(v)) {
          double total = 0.0;
          for (size_t k = 0; k < num_clusters; ++k) {
            resp[k] = theta_v[k] * beta(k, tc.term);
            total += resp[k];
          }
          if (total <= 0.0) {
            // All clusters assign zero mass (possible with zero smoothing):
            // treat the observation as uninformative.
            std::fill(resp.begin(), resp.end(), 1.0 / num_clusters);
            total = 1.0;
          }
          double* counts = (*acc)[t].counts.data();
          for (size_t k = 0; k < num_clusters; ++k) {
            const double r = tc.count * resp[k] / total;
            mix[k] += r;
            counts[k * vocab + tc.term] += r;
          }
        }
      } else {
        for (double x : attr.Values(v)) {
          // Log-space for numerical stability of the Gaussian E-step.
          double max_log = kNegInf;
          for (size_t k = 0; k < num_clusters; ++k) {
            const double tk = theta_v[k] > 0.0 ? theta_v[k] : 1e-300;
            resp[k] = std::log(tk) + comp.LogPdf(k, x);
            max_log = std::max(max_log, resp[k]);
          }
          double total = 0.0;
          for (size_t k = 0; k < num_clusters; ++k) {
            resp[k] = std::exp(resp[k] - max_log);
            total += resp[k];
          }
          auto& a = (*acc)[t];
          for (size_t k = 0; k < num_clusters; ++k) {
            const double r = resp[k] / total;
            mix[k] += r;
            a.weight_sum[k] += r;
            a.value_sum[k] += r * x;
            a.square_sum[k] += r * x * x;
          }
        }
      }
    }

    // Normalize onto the simplex; isolated attribute-free nodes fall back
    // to uniform inside NormalizeOntoSimplex.
    NormalizeOntoSimplex(mix.data(), num_clusters, config_->theta_floor,
                         new_theta->Row(v));
  }
}

void EmOptimizer::UpdateComponents(
    const std::vector<EmComponentAccumulator>& acc,
    std::vector<AttributeComponents>* components) const {
  const size_t num_clusters = config_->num_clusters;
  for (size_t t = 0; t < attributes_.size(); ++t) {
    if (attributes_[t]->kind() == AttributeKind::kCategorical) {
      const size_t vocab = attributes_[t]->vocab_size();
      Matrix* beta = (*components)[t].mutable_beta();
      for (size_t k = 0; k < num_clusters; ++k) {
        double row_total = 0.0;
        for (size_t l = 0; l < vocab; ++l) {
          row_total += acc[t].counts[k * vocab + l];
        }
        // Additive smoothing scaled by the cluster's count mass keeps the
        // relative flattening comparable across clusters of any size.
        const double smooth =
            config_->beta_smoothing * (row_total > 0.0 ? row_total : 1.0);
        const double denom = row_total + smooth * static_cast<double>(vocab);
        if (denom <= 0.0) {
          // Empty cluster: keep a uniform term distribution.
          const double u = 1.0 / static_cast<double>(vocab);
          for (size_t l = 0; l < vocab; ++l) (*beta)(k, l) = u;
        } else {
          for (size_t l = 0; l < vocab; ++l) {
            (*beta)(k, l) = (acc[t].counts[k * vocab + l] + smooth) / denom;
          }
        }
      }
    } else {
      auto* gaussians = (*components)[t].mutable_gaussians();
      for (size_t k = 0; k < num_clusters; ++k) {
        const double w = acc[t].weight_sum[k];
        if (w <= 1e-12) continue;  // empty cluster: keep previous parameters
        const double mean = acc[t].value_sum[k] / w;
        double var = acc[t].square_sum[k] / w - mean * mean;
        if (var < config_->variance_floor) var = config_->variance_floor;
        (*gaussians)[k] = GaussianDistribution(mean, var);
      }
    }
  }
}

double EmOptimizer::Step(const std::vector<double>& gamma, Matrix* theta,
                         std::vector<AttributeComponents>* components) const {
  EmWorkspace workspace;
  return Step(gamma, theta, components, &workspace);
}

double EmOptimizer::Step(const std::vector<double>& gamma, Matrix* theta,
                         std::vector<AttributeComponents>* components,
                         EmWorkspace* ws) const {
  GENCLUS_CHECK(theta != nullptr && components != nullptr);
  GENCLUS_CHECK(ws != nullptr);
  GENCLUS_CHECK_EQ(theta->rows(), network_->num_nodes());
  GENCLUS_CHECK_EQ(theta->cols(), config_->num_clusters);
  GENCLUS_CHECK_EQ(gamma.size(), network_->schema().num_link_types());
  GENCLUS_CHECK_EQ(components->size(), attributes_.size());

  const size_t n = network_->num_nodes();
  const size_t num_clusters = config_->num_clusters;
  const size_t num_blocks = NumBlocks();
  ws->Prepare(n, num_clusters, attributes_, num_blocks);
  RebuildDerivedTables(*components, ws);
  if (n == 0) {
    // No blocks run below; clear the lone reduction slot by hand so a
    // reused workspace cannot leak stale statistics into the M-step.
    for (auto& a : ws->block_acc_[0]) ZeroAccumulator(&a);
    ws->block_delta_[0] = 0.0;
  }

  // One K dispatch per sweep, with the same cases as SpmmAccumulate and
  // ServeCore::SweepRows.
  const double* theta_data = theta->data().data();
  switch (num_clusters) {
    case 2:
      FusedSweep<2>(gamma, theta_data, ws);
      break;
    case 3:
      FusedSweep<3>(gamma, theta_data, ws);
      break;
    case 4:
      FusedSweep<4>(gamma, theta_data, ws);
      break;
    case 8:
      FusedSweep<8>(gamma, theta_data, ws);
      break;
    default:
      FusedSweep<-1>(gamma, theta_data, ws);
      break;
  }

  // Deterministic reduction: fold block partials in block order, so the
  // merged statistics (and hence beta and the Gaussians) never depend on
  // how blocks were scheduled across threads.
  double delta = 0.0;
  for (size_t b = 0; b < num_blocks; ++b) {
    delta = std::max(delta, ws->block_delta_[b]);
  }
  for (size_t b = 1; b < num_blocks; ++b) {
    for (size_t t = 0; t < attributes_.size(); ++t) {
      MergeAccumulator(&ws->block_acc_[0][t], ws->block_acc_[b][t]);
    }
  }
  UpdateComponents(ws->block_acc_[0], components);
  std::swap(*theta, ws->new_theta_);
  return delta;
}

double EmOptimizer::ReferenceStep(
    const std::vector<double>& gamma, Matrix* theta,
    std::vector<AttributeComponents>* components) const {
  GENCLUS_CHECK(theta != nullptr && components != nullptr);
  GENCLUS_CHECK_EQ(theta->rows(), network_->num_nodes());
  GENCLUS_CHECK_EQ(theta->cols(), config_->num_clusters);
  GENCLUS_CHECK_EQ(gamma.size(), network_->schema().num_link_types());
  GENCLUS_CHECK_EQ(components->size(), attributes_.size());

  const size_t n = network_->num_nodes();
  const size_t num_clusters = config_->num_clusters;
  Matrix new_theta(n, num_clusters);
  auto acc = ZeroAccumulators(attributes_, num_clusters);
  ProcessNodes(0, n, gamma, *theta, *components, &new_theta, &acc);
  UpdateComponents(acc, components);
  const double delta = Matrix::MaxAbsDiff(*theta, new_theta);
  *theta = std::move(new_theta);
  return delta;
}

EmStats EmOptimizer::Run(const std::vector<double>& gamma, Matrix* theta,
                         std::vector<AttributeComponents>* components) const {
  EmWorkspace workspace;
  return Run(gamma, theta, components, &workspace);
}

EmStats EmOptimizer::Run(const std::vector<double>& gamma, Matrix* theta,
                         std::vector<AttributeComponents>* components,
                         EmWorkspace* workspace) const {
  GENCLUS_CHECK(workspace != nullptr);
  EmStats stats;
  for (size_t iter = 0; iter < config_->em_iterations; ++iter) {
    const double delta = Step(gamma, theta, components, workspace);
    stats.iterations = iter + 1;
    stats.final_delta = delta;
    if (delta < config_->em_tolerance) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

void EmOptimizer::EstimateComponents(
    const Matrix& theta, std::vector<AttributeComponents>* components,
    EmComponentSums* sums) const {
  const size_t num_clusters = config_->num_clusters;
  const size_t n = network_->num_nodes();
  GENCLUS_CHECK(components != nullptr);
  GENCLUS_CHECK_EQ(components->size(), attributes_.size());
  GENCLUS_CHECK_EQ(theta.rows(), n);
  GENCLUS_CHECK_EQ(theta.cols(), num_clusters);
  EmComponentSums empty;
  if (sums == nullptr) sums = &empty;
  if (sums->rows == 0) {
    sums->attributes = ZeroAccumulators(attributes_, num_clusters);
  }
  GENCLUS_CHECK_LE(sums->rows, n);
  GENCLUS_CHECK_EQ(sums->attributes.size(), attributes_.size());

  // Each node's theta row stands in for the responsibilities of its
  // observations; the M-step itself is UpdateComponents' rule, so the
  // initial component estimate and the EM updates are interchangeable.
  for (size_t t = 0; t < attributes_.size(); ++t) {
    const Attribute& attr = *attributes_[t];
    EmComponentAccumulator& a = sums->attributes[t];
    if (attr.kind() == AttributeKind::kCategorical) {
      const size_t vocab = attr.vocab_size();
      GENCLUS_CHECK_EQ(a.counts.size(), num_clusters * vocab);
      double* counts = a.counts.data();
      for (NodeId v = static_cast<NodeId>(sums->rows); v < n; ++v) {
        const double* theta_v = theta.Row(v);
        for (const TermCount& tc : attr.TermCounts(v)) {
          for (size_t k = 0; k < num_clusters; ++k) {
            counts[k * vocab + tc.term] += theta_v[k] * tc.count;
          }
        }
      }
    } else {
      GENCLUS_CHECK_EQ(a.weight_sum.size(), num_clusters);
      for (NodeId v = static_cast<NodeId>(sums->rows); v < n; ++v) {
        const double* theta_v = theta.Row(v);
        for (double x : attr.Values(v)) {
          for (size_t k = 0; k < num_clusters; ++k) {
            a.weight_sum[k] += theta_v[k];
            a.value_sum[k] += theta_v[k] * x;
            a.square_sum[k] += theta_v[k] * x * x;
          }
        }
      }
    }
  }
  sums->rows = n;
  UpdateComponents(sums->attributes, components);
}

}  // namespace genclus
