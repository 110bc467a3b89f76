#include "core/inference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"

namespace genclus {

namespace {

// Model-vs-network precondition shared by the reference path and
// ServeCore; a per-query path returns it per query, a core computes it
// once per (network, model) pair.
Status ValidateModelForServing(const Network& network, const Model& model) {
  if (model.theta.cols() < 2) {
    return Status::FailedPrecondition("model has no clustering");
  }
  // The model may cover MORE nodes than the network (a refreshed model
  // hot-swapped into a server still planning against the old network —
  // queries only link to nodes the network can address, all of which
  // have Θ rows), never fewer.
  if (model.theta.rows() < network.num_nodes() ||
      model.gamma.size() != network.schema().num_link_types()) {
    return Status::InvalidArgument("model does not match network");
  }
  // The plan CSR addresses link targets with 32-bit column ids; reject
  // node counts that would silently wrap instead of truncating at
  // assembly time.
  GENCLUS_RETURN_IF_ERROR(
      ValidateCsrColumnCount(network.num_nodes(), "serving node count"));
  return Status::OK();
}

Status ValidateLink(const Network& network, const NewObjectLink& link) {
  if (link.target >= network.num_nodes()) {
    return Status::InvalidArgument("link target out of range");
  }
  if (!network.schema().ValidLinkType(link.type)) {
    return Status::InvalidArgument("unknown link type");
  }
  if (!(link.weight > 0.0) || !std::isfinite(link.weight)) {
    return Status::InvalidArgument("link weight must be positive");
  }
  return Status::OK();
}

// First-error validation of one query, in the reference path's order:
// links before observations. Used by InferMembership; ServeCore::Plan
// fuses the SAME per-item checks and ordering into its assembly loop, so
// a query fails with the same status on either path — keep the two in
// sync (serve_batch_test pins the status equality).
Status ValidateQuery(const Network& network, const Model& model,
                     const std::vector<NewObjectLink>& links,
                     const std::vector<NewObjectObservation>& observations) {
  for (const NewObjectLink& link : links) {
    GENCLUS_RETURN_IF_ERROR(ValidateLink(network, link));
  }
  for (const NewObjectObservation& obs : observations) {
    GENCLUS_RETURN_IF_ERROR(obs.Validate(model));
  }
  return Status::OK();
}

const char* KindName(AttributeKind kind) {
  return kind == AttributeKind::kCategorical ? "categorical" : "numerical";
}

}  // namespace

NewObjectObservation NewObjectObservation::Categorical(AttributeId attribute,
                                                       uint32_t term,
                                                       double count) {
  NewObjectObservation obs;
  obs.attribute = attribute;
  obs.term = term;
  obs.count = count;
  return obs;
}

NewObjectObservation NewObjectObservation::Numerical(AttributeId attribute,
                                                     double value) {
  NewObjectObservation obs;
  obs.attribute = attribute;
  obs.value = value;
  obs.kind = AttributeKind::kNumerical;
  return obs;
}

Status NewObjectObservation::Validate(const Model& model) const {
  if (attribute >= model.components.size()) {
    return Status::InvalidArgument("observation attribute out of range");
  }
  const AttributeKind model_kind = model.components[attribute].kind();
  // attributes metadata is aligned with components in Engine-produced
  // models but may be absent in hand-built ones; fall back to the id.
  // Built lazily: error paths only, the hot path stays allocation-free.
  const auto name = [&]() -> std::string {
    return attribute < model.attributes.size()
               ? model.attributes[attribute].name
               : StrFormat("#%u", attribute);
  };
  if (kind != model_kind) {
    return Status::InvalidArgument(
        StrFormat("%s observation for attribute '%s', which is %s — use "
                  "NewObjectObservation::%s",
                  KindName(kind), name().c_str(), KindName(model_kind),
                  model_kind == AttributeKind::kCategorical ? "Categorical"
                                                            : "Numerical"));
  }
  // The magnitude bound is the one a dataset's Attribute applies to each
  // stored count, repeated terms summed, and value (hin/attributes.h), so
  // evidence read from a dataset always passes. The negated compares
  // refuse NaN too.
  if (kind == AttributeKind::kCategorical) {
    const AttributeComponents& comp = model.components[attribute];
    if (term >= comp.beta().cols()) {
      return Status::InvalidArgument(
          StrFormat("term %u outside vocabulary", term));
    }
    if (!(count >= 0.0 && count <= kMaxObservationMagnitude)) {
      return Status::InvalidArgument(
          StrFormat("observation count for attribute '%s' must be a "
                    "non-negative number of at most %g",
                    name().c_str(), kMaxObservationMagnitude));
    }
  } else if (!(std::abs(value) <= kMaxObservationMagnitude)) {
    return Status::InvalidArgument(
        StrFormat("numerical observation for attribute '%s' must be a "
                  "number of magnitude at most %g",
                  name().c_str(), kMaxObservationMagnitude));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ServeCore

ServeCore::ServeCore(const Network* network, const Model* model)
    : network_(network),
      model_(model),
      model_status_(ValidateModelForServing(*network, *model)),
      beta_transpose_(model->components.size()),
      gaussians_(model->components.size()) {
  for (size_t a = 0; a < model->components.size(); ++a) {
    const AttributeComponents& comp = model->components[a];
    if (comp.kind() == AttributeKind::kCategorical) {
      beta_transpose_[a] = comp.beta().Transpose();
    } else {
      gaussians_[a].Rebuild(comp);
    }
  }
}

InferPlan ServeCore::Plan(std::span<const NewObjectQuery> queries) const {
  WallTimer timer;
  InferPlan plan;
  std::vector<std::pair<uint32_t, double>> row_links;  // sort scratch
  plan.statuses.reserve(queries.size());
  plan.row_to_query.reserve(queries.size());
  plan.row_offsets.reserve(queries.size() + 1);
  plan.observation_offsets.reserve(queries.size() + 1);
  size_t max_links = 0;
  size_t max_observations = 0;
  for (const NewObjectQuery& query : queries) {
    max_links += query.links.size();
    max_observations += query.observations.size();
  }
  plan.link_cols.reserve(max_links);
  plan.link_values.reserve(max_links);
  plan.observations.reserve(max_observations);
  plan.row_offsets.push_back(0);
  plan.observation_offsets.push_back(0);
  for (size_t i = 0; i < queries.size(); ++i) {
    const NewObjectQuery& query = queries[i];
    if (!model_status_.ok()) {
      plan.statuses.push_back(model_status_);
      continue;
    }
    // Fused validate + assemble, one pass per query: links then
    // observations, first error wins — the same order ValidateQuery and
    // the reference path check in. On error the row's partial CSR output
    // is rolled back, so invalid queries leave no trace in the batch.
    const size_t links_start = plan.link_cols.size();
    Status status;
    for (const NewObjectLink& link : query.links) {
      status = ValidateLink(*network_, link);
      if (!status.ok()) break;
      plan.link_cols.push_back(link.target);
      // Fold gamma in here: the SpMM pass then runs with coeff 1.0 and
      // each row accumulates gamma * w * theta_target in the query's own
      // link order — exactly the reference path's sum.
      plan.link_values.push_back(model_->gamma[link.type] * link.weight);
    }
    if (status.ok()) {
      for (const NewObjectObservation& obs : query.observations) {
        status = obs.Validate(*model_);
        if (!status.ok()) break;
      }
    }
    if (!status.ok()) {
      plan.link_cols.resize(links_start);
      plan.link_values.resize(links_start);
      plan.statuses.push_back(std::move(status));
      continue;
    }
    // Canonicalize the kept row: stable-sort its non-zeros by target
    // column. This is the accumulation order the reference path uses too.
    // A row that already ascends (a network node's single-relation
    // out-links) is left as it is.
    const size_t links_count = plan.link_cols.size() - links_start;
    const auto row_cols = plan.link_cols.begin() + links_start;
    if (links_count > 1 && !std::is_sorted(row_cols, plan.link_cols.end())) {
      row_links.resize(links_count);
      for (size_t j = 0; j < links_count; ++j) {
        row_links[j] = {plan.link_cols[links_start + j],
                        plan.link_values[links_start + j]};
      }
      std::stable_sort(row_links.begin(), row_links.end(),
                       [](const std::pair<uint32_t, double>& a,
                          const std::pair<uint32_t, double>& b) {
                         return a.first < b.first;
                       });
      for (size_t j = 0; j < links_count; ++j) {
        plan.link_cols[links_start + j] = row_links[j].first;
        plan.link_values[links_start + j] = row_links[j].second;
      }
    }
    plan.statuses.push_back(Status::OK());
    plan.row_to_query.push_back(i);
    plan.row_offsets.push_back(plan.link_cols.size());
    plan.observations.insert(plan.observations.end(),
                             query.observations.begin(),
                             query.observations.end());
    plan.observation_offsets.push_back(plan.observations.size());
    plan.total_links += query.links.size();
    plan.total_observations += query.observations.size();
  }
  plan.plan_seconds = timer.Seconds();
  return plan;
}

InferenceResult ServeCore::Execute(const InferPlan& plan, ThreadPool* pool,
                                   size_t iterations,
                                   double theta_floor) const {
  WallTimer timer;
  const size_t num_queries = plan.num_queries();
  const size_t num_rows = plan.num_rows();
  const size_t num_clusters = model_->num_clusters();
  const size_t grain = ServeDefaults::kBatchBlockGrain;

  InferenceResult out;
  out.statuses = plan.statuses;
  out.memberships = Matrix(num_queries, num_clusters);
  out.hard_labels.assign(num_queries, kNoHardLabel);

  // This call's link term Σ_r γ_r (Q_r Θ), num_rows x K. One pass over
  // fixed-grain query blocks: SpMM fills the block's link-term rows while
  // they are hot, then the block's queries sweep, dispatched to a
  // K-specialized instantiation for common cluster counts like the SpMM
  // kernel (unrolling never reorders a floating-point op). Per-row SpMM
  // accumulation order is the CSR non-zero order and every query's sweep
  // touches only its own state, so any block scheduling yields bitwise
  // identical results.
  Matrix link_part(num_rows, num_clusters);
  ForEachFixedGrainBlock(pool, num_rows, grain, [&](size_t /*block*/,
                                                    size_t begin,
                                                    size_t end) {
    SpmmAccumulate(plan.links(), 1.0, model_->theta.data().data(),
                   num_clusters, begin, end, link_part.data().data());
    switch (num_clusters) {
      case 2:
        SweepRows<2>(plan, link_part, begin, end, iterations, theta_floor,
                     &out);
        break;
      case 3:
        SweepRows<3>(plan, link_part, begin, end, iterations, theta_floor,
                     &out);
        break;
      case 4:
        SweepRows<4>(plan, link_part, begin, end, iterations, theta_floor,
                     &out);
        break;
      case 8:
        SweepRows<8>(plan, link_part, begin, end, iterations, theta_floor,
                     &out);
        break;
      default:
        SweepRows<-1>(plan, link_part, begin, end, iterations, theta_floor,
                      &out);
        break;
    }
  });

  out.report.batch_size = num_queries;
  out.report.valid_queries = num_rows;
  out.report.total_links = plan.total_links;
  out.report.total_observations = plan.total_observations;
  out.report.exec_blocks = (num_rows + grain - 1) / grain;
  out.report.plan_seconds = plan.plan_seconds;
  out.report.exec_seconds = timer.Seconds();
  return out;
}

// The attribute fixed-point sweeps for one block's query rows. Mirrors
// the reference path's loop (InferMembership) operation for operation,
// with value-preserving changes only: beta is read term-major, log
// theta_k is evaluated once per sweep instead of once per observation,
// each observation's sweep-invariant Gaussian log-density row is cached
// across sweeps, the max-logit cluster's exponential — exactly
// exp(0) = 1 — is never evaluated, and common cluster counts get fully
// unrolled instantiations.
template <int kFixedK>
void ServeCore::SweepRows(const InferPlan& plan, const Matrix& link_part,
                          size_t row_begin, size_t row_end,
                          size_t iterations, double theta_floor,
                          InferenceResult* out) const {
  const size_t num_clusters = kFixedK > 0
                                  ? static_cast<size_t>(kFixedK)
                                  : model_->num_clusters();
  // Per-row theta/mix/responsibilities/log-theta, 4 x K doubles: a local
  // array the compiler can keep in registers when K is fixed, one heap
  // buffer for the block otherwise.
  double fixed_kbuf[kFixedK > 0 ? 4 * kFixedK : 1] = {};
  std::vector<double> runtime_kbuf(kFixedK > 0 ? 0 : 4 * num_clusters);
  double* theta = kFixedK > 0 ? fixed_kbuf : runtime_kbuf.data();
  double* mix = theta + num_clusters;
  double* resp = mix + num_clusters;
  double* log_theta = resp + num_clusters;
  // The block's resolved observations and the per-query cache of
  // sweep-invariant Gaussian log-densities (one K-row per numerical
  // observation), reused across its rows.
  std::vector<ObsRef> obs_refs;
  std::vector<double> log_pdfs;

  const size_t sweeps = std::max<size_t>(1, iterations);
  for (size_t row = row_begin; row < row_end; ++row) {
    const double* link_row = link_part.Row(row);
    const size_t obs_begin = plan.observation_offsets[row];
    const size_t obs_end = plan.observation_offsets[row + 1];
    const size_t num_obs = obs_end - obs_begin;

    // Resolve the query's observations once: Gaussian log-densities are
    // (sweep, theta)-invariant, so each numerical observation's K-row is
    // evaluated here and reused by every sweep; categorical observations
    // resolve to their term-major beta row. The sweep loop then reads
    // flat descriptors instead of chasing model components per sweep.
    if (log_pdfs.size() < num_obs * num_clusters) {
      log_pdfs.resize(num_obs * num_clusters);
    }
    if (obs_refs.size() < num_obs) obs_refs.resize(num_obs);
    for (size_t j = 0; j < num_obs; ++j) {
      const NewObjectObservation& obs = plan.observations[obs_begin + j];
      ObsRef& ref = obs_refs[j];
      if (obs.kind == AttributeKind::kCategorical) {
        ref.categorical = true;
        ref.count = obs.count;
        ref.data = beta_transpose_[obs.attribute].Row(obs.term);
      } else {
        const GaussianEvalTable& table = gaussians_[obs.attribute];
        double* log_pdf = log_pdfs.data() + j * num_clusters;
        for (size_t k = 0; k < num_clusters; ++k) {
          log_pdf[k] = table.LogPdf(k, obs.value);
        }
        ref.categorical = false;
        ref.count = 0.0;
        ref.data = log_pdf;
      }
    }

    std::fill(theta, theta + num_clusters, 1.0 / num_clusters);
    for (size_t iter = 0; iter < sweeps; ++iter) {
      std::copy(link_row, link_row + num_clusters, mix);
      bool log_theta_ready = false;
      for (size_t j = 0; j < num_obs; ++j) {
        const ObsRef& obs = obs_refs[j];
        if (obs.categorical) {
          const double* beta_term = obs.data;
          double total = 0.0;
          for (size_t k = 0; k < num_clusters; ++k) {
            resp[k] = theta[k] * beta_term[k];
            total += resp[k];
          }
          if (total <= 0.0) {
            // Zero-mass term: uniform responsibilities, count mass still
            // contributes (matches the training E-step and the reference
            // path).
            std::fill(resp, resp + num_clusters, 1.0 / num_clusters);
            total = 1.0;
          }
          for (size_t k = 0; k < num_clusters; ++k) {
            mix[k] += obs.count * resp[k] / total;
          }
        } else {
          const double* log_pdf = obs.data;
          if (!log_theta_ready) {
            if (iter == 0) {
              // Sweep 0 starts from the uniform vector: every component
              // is exactly 1/K, so one log covers all K entries.
              const double log_uniform =
                  std::log(1.0 / static_cast<double>(num_clusters));
              for (size_t k = 0; k < num_clusters; ++k) {
                log_theta[k] = log_uniform;
              }
            } else {
              for (size_t k = 0; k < num_clusters; ++k) {
                const double t = theta[k] > 0.0 ? theta[k] : 1e-300;
                log_theta[k] = std::log(t);
              }
            }
            log_theta_ready = true;
          }
          double max_log = -std::numeric_limits<double>::infinity();
          for (size_t k = 0; k < num_clusters; ++k) {
            resp[k] = log_theta[k] + log_pdf[k];
            max_log = std::max(max_log, resp[k]);
          }
          // exp(0) is exactly 1, so the max cluster's exponential is
          // free — one std::exp saved per observation per sweep. The
          // shifted-logit test keeps the max scan itself branchless.
          double total = 0.0;
          for (size_t k = 0; k < num_clusters; ++k) {
            const double shifted = resp[k] - max_log;
            resp[k] = shifted == 0.0 ? 1.0 : std::exp(shifted);
            total += resp[k];
          }
          for (size_t k = 0; k < num_clusters; ++k) {
            mix[k] += resp[k] / total;
          }
        }
      }
      NormalizeToSimplex(mix, num_clusters);
      ClampToSimplex(mix, num_clusters, theta_floor);
      // Fused max-|delta| + swap: after this loop `theta` holds the new
      // iterate and `mix` the old one (overwritten next sweep).
      double delta = 0.0;
      for (size_t k = 0; k < num_clusters; ++k) {
        delta = std::max(delta, std::abs(theta[k] - mix[k]));
        std::swap(theta[k], mix[k]);
      }
      if (delta < ServeDefaults::kSweepTolerance) break;
    }
    const size_t query = plan.row_to_query[row];
    std::copy(theta, theta + num_clusters, out->memberships.Row(query));
    size_t best = 0;
    for (size_t k = 1; k < num_clusters; ++k) {
      if (theta[k] > theta[best]) best = k;
    }
    out->hard_labels[query] = static_cast<uint32_t>(best);
  }
}

// ---------------------------------------------------------------------------
// Reference path

Result<std::vector<double>> InferMembership(
    const Network& network, const Model& model,
    const std::vector<NewObjectLink>& links,
    const std::vector<NewObjectObservation>& observations,
    size_t iterations, double theta_floor) {
  const size_t num_clusters = model.theta.cols();
  GENCLUS_RETURN_IF_ERROR(ValidateModelForServing(network, model));
  GENCLUS_RETURN_IF_ERROR(
      ValidateQuery(network, model, links, observations));

  // Link part is constant across sweeps: sum_e gamma w theta_target,
  // accumulated in stable ascending-target order — the canonical order
  // the batch planner sorts each CSR row into, so the two paths stay
  // bitwise identical.
  std::vector<size_t> order(links.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return links[a].target < links[b].target;
  });
  std::vector<double> link_part(num_clusters, 0.0);
  for (size_t idx : order) {
    const NewObjectLink& link = links[idx];
    const double coeff = model.gamma[link.type] * link.weight;
    if (coeff == 0.0) continue;
    const double* theta_u = model.theta.Row(link.target);
    for (size_t k = 0; k < num_clusters; ++k) {
      link_part[k] += coeff * theta_u[k];
    }
  }

  // Gaussian constants are sweep- and observation-invariant; hoisting them
  // here applies the same evaluation rule the training E-step uses
  // (core/em.cc), so fold-in stays consistent with a full training pass.
  // Only attributes this query actually observes pay the build (an empty
  // table marks "not built").
  std::vector<GaussianEvalTable> gaussians(model.components.size());
  for (const NewObjectObservation& obs : observations) {
    const AttributeComponents& comp = model.components[obs.attribute];
    if (comp.kind() == AttributeKind::kNumerical &&
        gaussians[obs.attribute].num_clusters() == 0) {
      gaussians[obs.attribute].Rebuild(comp);
    }
  }

  std::vector<double> theta(num_clusters, 1.0 / num_clusters);
  std::vector<double> resp(num_clusters);
  const size_t sweeps = std::max<size_t>(1, iterations);
  for (size_t iter = 0; iter < sweeps; ++iter) {
    std::vector<double> mix = link_part;
    for (const NewObjectObservation& obs : observations) {
      const AttributeComponents& comp = model.components[obs.attribute];
      if (comp.kind() == AttributeKind::kCategorical) {
        double total = 0.0;
        for (size_t k = 0; k < num_clusters; ++k) {
          resp[k] = theta[k] * comp.TermProb(static_cast<ClusterId>(k),
                                             obs.term);
          total += resp[k];
        }
        if (total <= 0.0) {
          // All clusters assign zero mass (possible with zero smoothing).
          // Mirror the training E-step (em.cc): uniform responsibilities,
          // and the observation's count mass still contributes — skipping
          // it would make fold-in memberships diverge from what a full
          // training pass assigns to the same evidence.
          std::fill(resp.begin(), resp.end(), 1.0 / num_clusters);
          total = 1.0;
        }
        for (size_t k = 0; k < num_clusters; ++k) {
          mix[k] += obs.count * resp[k] / total;
        }
      } else {
        const GaussianEvalTable& table = gaussians[obs.attribute];
        double max_log = -std::numeric_limits<double>::infinity();
        for (size_t k = 0; k < num_clusters; ++k) {
          const double t = theta[k] > 0.0 ? theta[k] : 1e-300;
          resp[k] = std::log(t) + table.LogPdf(k, obs.value);
          max_log = std::max(max_log, resp[k]);
        }
        double total = 0.0;
        for (size_t k = 0; k < num_clusters; ++k) {
          resp[k] = std::exp(resp[k] - max_log);
          total += resp[k];
        }
        for (size_t k = 0; k < num_clusters; ++k) {
          mix[k] += resp[k] / total;
        }
      }
    }
    NormalizeToSimplex(&mix);
    ClampToSimplex(&mix, theta_floor);
    const double delta = MaxAbsDiff(theta, mix);
    theta = std::move(mix);
    if (delta < ServeDefaults::kSweepTolerance) break;
  }
  return theta;
}

}  // namespace genclus
