#include "core/update.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/em.h"
#include "core/inference.h"

namespace genclus {

namespace {

// The query a new object with v's out-links to rows below `valid_rows`
// and v's own observations would send: folding a network node in is the
// serving update for that evidence (model attribute a is attrs[a]).
NewObjectQuery FoldInQuery(const Network& network, NodeId v,
                           size_t valid_rows,
                           const std::vector<const Attribute*>& attrs) {
  NewObjectQuery query;
  query.links.reserve(network.OutDegree(v));
  for (const LinkEntry& e : network.OutLinks(v)) {
    if (e.neighbor < valid_rows) {
      query.links.push_back({e.neighbor, e.type, e.weight});
    }
  }
  for (size_t a = 0; a < attrs.size(); ++a) {
    const AttributeId id = static_cast<AttributeId>(a);
    if (attrs[a]->kind() == AttributeKind::kCategorical) {
      for (const TermCount& tc : attrs[a]->TermCounts(v)) {
        query.observations.push_back(
            NewObjectObservation::Categorical(id, tc.term, tc.count));
      }
    } else {
      for (double x : attrs[a]->Values(v)) {
        query.observations.push_back(NewObjectObservation::Numerical(id, x));
      }
    }
  }
  return query;
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
  // Warm start: components and gamma carry over, survivors keep their
  // Theta rows, and new nodes are seeded in ascending id order by the
  // serving fold-in over their links to lower ids (each seed may read
  // earlier seeds — links among new nodes still contribute).
  model.components = prev_model.components;
  model.gamma = config.initial_gamma;
  model.theta = prev_model.theta;
  model.theta.AppendRows(n - prev_rows, 0.0);
  const BatchPlanner planner(&dataset.network, &model);
  InferSession session(&model, /*pool=*/nullptr,
                       ServeDefaults::kInferenceIterations, config.theta_floor);
  for (NodeId v = static_cast<NodeId>(prev_rows); v < n; ++v) {
    const NewObjectQuery query = FoldInQuery(dataset.network, v, v, attrs);
    const InferenceResult seed = session.Execute(planner.Plan({&query, 1}));
    // Evidence read from the validated dataset cannot fail planning.
    GENCLUS_CHECK(seed.ok(0));
    std::ranges::copy(seed.membership(0), model.theta.Row(v));
  }
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
  const size_t num_clusters = model->num_clusters();
  model->theta.AppendRows(n - old_nodes,
                          1.0 / static_cast<double>(num_clusters));

  // Every touched row is one query of a single plan over all of its
  // out-links, built after the growth so the planner sees the grown
  // Theta. Evidence read from the grown dataset (targets < n, weights
  // checked by GrowDataset, terms inside the model's vocabulary) cannot
  // fail planning, so nothing after GrowDataset can fail.
  std::vector<NewObjectQuery> queries;
  queries.reserve(rows.size());
  for (NodeId v : rows) {
    queries.push_back(FoldInQuery(dataset->network, v, n, attrs));
  }
  const InferPlan plan = BatchPlanner(&dataset->network, model).Plan(queries);
  GENCLUS_CHECK_EQ(plan.num_rows(), rows.size());

  // Jacobi rounds: each round re-solves every touched row against the
  // previous round's Theta. A round's answers reach Theta only once all
  // are solved, so the result is independent of the iteration order.
  InferSession session(model, /*pool=*/nullptr);
  for (size_t round = 0; round < options.rounds; ++round) {
    const InferenceResult result = session.Execute(plan);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::ranges::copy(result.membership(i), model->theta.Row(rows[i]));
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
