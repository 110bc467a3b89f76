#include "core/update.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/em.h"

namespace genclus {

namespace {

// Same normalization rule as the EM sweep and the serving sweep: project
// onto the simplex with the theta floor, uniform fallback for all-zero
// mixes.
void NormalizeRow(const double* mix, size_t num_clusters, double floor,
                  double* out) {
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

// The fold-in update (Eq. 10/11 with the rest of the model fixed) for one
// node of a full network: the link term reads `theta` rows — only
// neighbors below `valid_rows`, so a Refit seeding pass can walk new
// nodes in ascending id order — and the attribute part runs `iterations`
// fixed-point sweeps over the node's own observations.
void FoldInRow(const Network& network, NodeId v, const Matrix& theta,
               size_t valid_rows, const std::vector<double>& gamma,
               const std::vector<const Attribute*>& attrs,
               const std::vector<AttributeComponents>& components,
               size_t iterations, double theta_floor, double* out) {
  const size_t num_clusters = theta.cols();
  std::vector<double> link_mix(num_clusters, 0.0);
  std::vector<double> mix(num_clusters);
  std::vector<double> resp(num_clusters);
  std::vector<double> theta_v(num_clusters,
                              1.0 / static_cast<double>(num_clusters));

  for (const LinkEntry& e : network.OutLinks(v)) {
    if (e.neighbor >= valid_rows) continue;
    const double coeff = gamma[e.type] * e.weight;
    if (coeff == 0.0) continue;
    const double* row = theta.Row(e.neighbor);
    for (size_t k = 0; k < num_clusters; ++k) link_mix[k] += coeff * row[k];
  }

  for (size_t it = 0; it < iterations; ++it) {
    std::copy(link_mix.begin(), link_mix.end(), mix.begin());
    for (size_t t = 0; t < attrs.size(); ++t) {
      const Attribute& attr = *attrs[t];
      const AttributeComponents& comp = components[t];
      if (attr.kind() == AttributeKind::kCategorical) {
        const Matrix& beta = comp.beta();
        for (const TermCount& tc : attr.TermCounts(v)) {
          double total = 0.0;
          for (size_t k = 0; k < num_clusters; ++k) {
            resp[k] = theta_v[k] * beta(k, tc.term);
            total += resp[k];
          }
          if (total <= 0.0) {
            std::fill(resp.begin(), resp.end(),
                      1.0 / static_cast<double>(num_clusters));
            total = 1.0;
          }
          for (size_t k = 0; k < num_clusters; ++k) {
            mix[k] += tc.count * resp[k] / total;
          }
        }
      } else {
        for (double x : attr.Values(v)) {
          double max_log = -std::numeric_limits<double>::infinity();
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
          for (size_t k = 0; k < num_clusters; ++k) {
            mix[k] += resp[k] / total;
          }
        }
      }
    }
    double delta = 0.0;
    NormalizeRow(mix.data(), num_clusters, theta_floor, mix.data());
    for (size_t k = 0; k < num_clusters; ++k) {
      delta = std::max(delta, std::fabs(mix[k] - theta_v[k]));
      theta_v[k] = mix[k];
    }
    if (delta < ServeDefaults::kSweepTolerance) break;
  }
  std::copy(theta_v.begin(), theta_v.end(), out);
}

// Checks that the dataset's schema and attribute shapes still match what
// `model` was trained on — the precondition for carrying Theta rows,
// components and gamma over.
Status CheckModelMatchesDataset(const Model& model, const Dataset& dataset) {
  const Schema& schema = dataset.network.schema();
  if (model.link_types.size() != schema.num_link_types()) {
    return Status::InvalidArgument(StrFormat(
        "model was trained on %zu link types, dataset schema declares %zu",
        model.link_types.size(), schema.num_link_types()));
  }
  for (LinkTypeId r = 0; r < schema.num_link_types(); ++r) {
    if (model.link_types[r] != schema.link_type(r).name) {
      return Status::InvalidArgument(StrFormat(
          "link type %u is '%s' in the model but '%s' in the dataset",
          r, model.link_types[r].c_str(),
          schema.link_type(r).name.c_str()));
    }
  }
  for (const ModelAttributeInfo& info : model.attributes) {
    const AttributeId id = dataset.FindAttribute(info.name);
    if (id == kInvalidAttribute) {
      return Status::NotFound(StrFormat(
          "model attribute '%s' not in dataset", info.name.c_str()));
    }
    const Attribute& attr = dataset.attributes[id];
    if (attr.kind() != info.kind) {
      return Status::InvalidArgument(StrFormat(
          "attribute '%s' changed kind since the model was trained",
          info.name.c_str()));
    }
    if (info.kind == AttributeKind::kCategorical &&
        attr.vocab_size() != info.vocab_size) {
      return Status::InvalidArgument(StrFormat(
          "attribute '%s' has vocabulary %zu, model was trained on %zu "
          "(the vocabulary must stay stable across refits)",
          info.name.c_str(), attr.vocab_size(), info.vocab_size));
    }
  }
  return Status::OK();
}

std::vector<std::string> ModelAttributeNames(const Model& model) {
  std::vector<std::string> names;
  names.reserve(model.attributes.size());
  for (const ModelAttributeInfo& info : model.attributes) {
    names.push_back(info.name);
  }
  return names;
}

}  // namespace

Result<FitResult> Engine::Refit(const Dataset& dataset,
                                const Model& prev_model,
                                const RefitOptions& options) {
  GENCLUS_RETURN_IF_ERROR(dataset.Validate());
  GENCLUS_RETURN_IF_ERROR(prev_model.Validate());
  GENCLUS_RETURN_IF_ERROR(CheckModelMatchesDataset(prev_model, dataset));
  if (options.seed_sweeps < 1) {
    return Status::InvalidArgument("seed_sweeps must be >= 1");
  }
  const Schema& schema = dataset.network.schema();
  const size_t n = dataset.network.num_nodes();
  const size_t prev_rows = prev_model.num_nodes();
  const size_t num_clusters = prev_model.num_clusters();
  if (prev_rows > n) {
    return Status::InvalidArgument(StrFormat(
        "previous model covers %zu nodes, grown dataset has only %zu "
        "(refit supports growth, not shrinkage)", prev_rows, n));
  }

  // K is pinned by the previous model and gamma carries over.
  GenClusConfig config = options.config;
  config.num_clusters = num_clusters;
  if (config.initial_gamma.empty()) config.initial_gamma = prev_model.gamma;
  GENCLUS_RETURN_IF_ERROR(config.Validate(schema.num_link_types()));

  std::vector<const Attribute*> attrs;
  Model model;
  GENCLUS_RETURN_IF_ERROR(ResolveAttributes(dataset,
                                            ModelAttributeNames(prev_model),
                                            &attrs, &model.attributes));

  WallTimer timer;
  // Warm Theta: survivors keep their rows, new nodes are seeded by the
  // fold-in update in ascending id order (each seed may read earlier
  // seeds — links among new nodes still contribute).
  model.theta = Matrix(n, num_clusters);
  for (size_t v = 0; v < prev_rows; ++v) {
    std::copy(prev_model.theta.Row(v), prev_model.theta.Row(v) + num_clusters,
              model.theta.Row(v));
  }
  for (size_t v = prev_rows; v < n; ++v) {
    FoldInRow(dataset.network, static_cast<NodeId>(v), model.theta,
              /*valid_rows=*/v, config.initial_gamma, attrs,
              prev_model.components, options.seed_sweeps,
              config.theta_floor, model.theta.Row(v));
  }
  model.components = prev_model.components;
  return RunAlgorithm1(dataset, attrs, config, options.observer,
                       options.cancellation, std::move(model), timer);
}

Result<UpdateReport> ApplyUpdates(Dataset* dataset, Model* model,
                                  std::span<const NetworkDelta> deltas,
                                  const UpdateOptions& options) {
  GENCLUS_CHECK(dataset != nullptr && model != nullptr);
  GENCLUS_RETURN_IF_ERROR(dataset->Validate());
  GENCLUS_RETURN_IF_ERROR(model->Validate());
  GENCLUS_RETURN_IF_ERROR(CheckModelMatchesDataset(*model, *dataset));
  if (options.rounds < 1) {
    return Status::InvalidArgument("rounds must be >= 1");
  }
  if (options.fold_in_sweeps < 1) {
    return Status::InvalidArgument("fold_in_sweeps must be >= 1");
  }
  const size_t num_clusters = model->num_clusters();
  if (!(options.theta_floor > 0.0) ||
      options.theta_floor >= 1.0 / static_cast<double>(num_clusters)) {
    return Status::InvalidArgument(
        "theta_floor must be in (0, 1/num_clusters)");
  }
  const size_t old_nodes = dataset->network.num_nodes();
  if (model->num_nodes() != old_nodes) {
    return Status::InvalidArgument(StrFormat(
        "model covers %zu nodes, dataset has %zu — refit instead of "
        "streaming updates", model->num_nodes(), old_nodes));
  }

  WallTimer timer;
  UpdateReport report;
  // Grows the caller's dataset in place; GrowDataset checks every delta
  // before it changes anything, and nothing after it can fail, so a
  // failing delta leaves both the dataset and the model untouched.
  GENCLUS_RETURN_IF_ERROR(GrowDataset(dataset, deltas));
  const size_t n = dataset->network.num_nodes();
  std::vector<uint8_t> touched(n, 0);
  for (size_t v = old_nodes; v < n; ++v) touched[v] = 1;
  for (const NetworkDelta& delta : deltas) {
    for (const DeltaLink& link : delta.links) touched[link.src] = 1;
    for (const DeltaObservation& obs : delta.observations) {
      touched[obs.node] = 1;
    }
    report.deltas_applied += 1;
    report.new_nodes += delta.nodes.size();
    report.new_links += delta.links.size();
    report.new_observations += delta.observations.size();
  }
  std::vector<NodeId> rows;
  for (size_t v = 0; v < n; ++v) {
    if (touched[v]) rows.push_back(static_cast<NodeId>(v));
  }
  report.touched_nodes = rows.size();

  std::vector<const Attribute*> attrs;
  attrs.reserve(model->attributes.size());
  for (const ModelAttributeInfo& info : model->attributes) {
    // CheckModelMatchesDataset validated the name on the base dataset and
    // growth never removes attributes.
    attrs.push_back(&dataset->attributes[dataset->FindAttribute(info.name)]);
  }

  // Grow Theta: survivors keep their rows, new nodes start uniform and
  // are solved by the Jacobi rounds below (every new node is touched).
  model->theta.AppendRows(n - old_nodes,
                          1.0 / static_cast<double>(num_clusters));

  // Jacobi rounds: each round re-solves every touched row against the
  // previous round's Theta. The round's rows go to `next` and reach Theta
  // only once all are solved, so the result is independent of the
  // iteration order (deterministic, and trivially parallelizable).
  Matrix next(rows.size(), num_clusters);
  for (size_t round = 0; round < options.rounds; ++round) {
    for (size_t i = 0; i < rows.size(); ++i) {
      FoldInRow(dataset->network, rows[i], model->theta, /*valid_rows=*/n,
                model->gamma, attrs, model->components,
                options.fold_in_sweeps, options.theta_floor, next.Row(i));
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      std::copy(next.Row(i), next.Row(i) + num_clusters,
                model->theta.Row(rows[i]));
    }
  }

  if (options.refresh_components && !attrs.empty()) {
    GenClusConfig config;
    config.num_clusters = num_clusters;
    EmOptimizer optimizer(&dataset->network, attrs, &config, nullptr);
    optimizer.EstimateComponents(model->theta, &model->components);
  }

  report.seconds = timer.Seconds();
  return report;
}

}  // namespace genclus
