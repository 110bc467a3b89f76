#include "core/update.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
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

// The ids of `model`'s attributes in `dataset`, in model order
// (CheckModelMatchesDataset has found every name).
std::vector<AttributeId> ModelAttributeIds(const Model& model,
                                           const Dataset& dataset) {
  std::vector<AttributeId> ids;
  ids.reserve(model.attributes.size());
  for (const ModelAttributeInfo& info : model.attributes) {
    ids.push_back(dataset.FindAttribute(info.name));
  }
  return ids;
}

// Whether any of `rows` below old_nodes — the old rows a call re-solves —
// carries an observation of one of `attrs`: then the call changes what
// the refresh's kept sums read.
bool ResolvesObservedRow(std::span<const NodeId> rows, size_t old_nodes,
                         const std::vector<const Attribute*>& attrs) {
  for (NodeId v : rows) {
    if (v >= old_nodes) break;
    for (const Attribute* attr : attrs) {
      if (attr->HasObservations(v)) return true;
    }
  }
  return false;
}

// Process-unique attribute stamps; 0 is never handed out.
std::atomic<uint64_t> next_attribute_stamp{0};

std::vector<std::string> ModelAttributeNames(const Model& model) {
  std::vector<std::string> names;
  names.reserve(model.attributes.size());
  for (const ModelAttributeInfo& info : model.attributes) {
    names.push_back(info.name);
  }
  return names;
}

}  // namespace

struct RefreshCache::State {
  // EstimateComponents' sums over Theta rows [0, sums.rows).
  EmComponentSums sums;
  // The Theta rows those sums read.
  Matrix theta;
  // The stamp each model attribute got when the sums were taken.
  std::vector<uint64_t> stamps;
};

RefreshCache::RefreshCache() noexcept = default;
RefreshCache::~RefreshCache() = default;
RefreshCache::RefreshCache(const RefreshCache&) noexcept {}
RefreshCache& RefreshCache::operator=(const RefreshCache&) noexcept {
  state_.reset();
  return *this;
}
RefreshCache::RefreshCache(RefreshCache&& other) noexcept = default;
RefreshCache& RefreshCache::operator=(RefreshCache&& other) noexcept =
    default;

// ApplyUpdates' component refresh and the state it keeps between calls:
// a model's RefreshCache and its attributes' stamps, which both classes
// let this one read and write.
class ComponentRefresh {
 public:
  // Whether `model` kept sums over all of its rows, taken from these
  // attributes as they are now: each still carries the stamp the sums
  // were taken under. Read before GrowDataset, which clears every stamp.
  static bool AttributesUnchanged(const Model& model,
                                  const std::vector<const Attribute*>& attrs) {
    const RefreshCache::State* kept = model.refresh_cache.state_.get();
    if (kept == nullptr || kept->sums.rows != model.num_nodes() ||
        kept->stamps.size() != attrs.size()) {
      return false;
    }
    for (size_t a = 0; a < attrs.size(); ++a) {
      if (attrs[a]->stamp_ != kept->stamps[a]) return false;
    }
    return true;
  }

  // Whether rows [0, old_nodes) of model.theta are bitwise the rows the
  // kept sums read. Requires AttributesUnchanged on entry.
  static bool ThetaUnchanged(const Model& model, size_t old_nodes) {
    const Matrix& kept = model.refresh_cache.state_->theta;
    return kept.rows() == old_nodes && kept.cols() == model.num_clusters() &&
           (old_nodes == 0 ||
            std::memcmp(kept.data().data(), model.theta.data().data(),
                        old_nodes * kept.cols() * sizeof(double)) == 0);
  }

  // Re-estimates model->components from model->theta through
  // EstimateComponents: from the kept sums when `resume`, else from empty
  // ones. When `keep`, keeps the new sums, the Theta rows they read (when
  // resuming, only the re-solved `rows` change) and fresh stamps on the
  // model's attributes; otherwise drops any kept state. Returns the
  // number of rows whose observations it read.
  static size_t Refresh(Dataset* dataset, Model* model,
                        const std::vector<AttributeId>& ids,
                        const std::vector<const Attribute*>& attrs,
                        std::span<const NodeId> rows, bool resume,
                        bool keep) {
    std::unique_ptr<RefreshCache::State>& kept = model->refresh_cache.state_;
    const size_t n = model->num_nodes();
    if (!keep) {
      kept.reset();
    } else if (resume) {
      Matrix& theta = kept->theta;
      theta.AppendRows(n - theta.rows(), 0.0);
      for (NodeId v : rows) {
        std::copy_n(model->theta.Row(v), theta.cols(), theta.Row(v));
      }
    } else {
      if (kept == nullptr) kept = std::make_unique<RefreshCache::State>();
      kept->sums.rows = 0;
      // Mirrors Theta's capacity, so the rows later resumed calls append
      // reallocate the copy no more often than Theta itself.
      kept->theta.data().reserve(model->theta.data().capacity());
      kept->theta = model->theta;
    }
    GenClusConfig config;
    config.num_clusters = model->num_clusters();
    EmOptimizer optimizer(&dataset->network, attrs, &config, nullptr);
    if (kept == nullptr) {
      optimizer.EstimateComponents(model->theta, &model->components);
      return n;
    }
    const size_t summed = kept->sums.rows;
    optimizer.EstimateComponents(model->theta, &model->components,
                                 &kept->sums);
    kept->stamps.clear();
    for (AttributeId id : ids) {
      const uint64_t stamp = next_attribute_stamp.fetch_add(1) + 1;
      dataset->attributes[id].stamp_ = stamp;
      kept->stamps.push_back(stamp);
    }
    return n - summed;
  }

  static void Drop(Model* model) { model->refresh_cache.state_.reset(); }
};

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
  const ServeCore core(&dataset.network, &model);
  for (NodeId v = static_cast<NodeId>(prev_rows); v < n; ++v) {
    const NewObjectQuery query = FoldInQuery(dataset.network, v, v, attrs);
    const InferenceResult seed =
        core.Execute(core.Plan({&query, 1}), /*pool=*/nullptr,
                     ServeDefaults::kInferenceIterations, config.theta_floor);
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

  // Growth never adds or removes attributes, so these stay valid.
  const std::vector<AttributeId> ids = ModelAttributeIds(*model, *dataset);
  std::vector<const Attribute*> attrs;
  attrs.reserve(ids.size());
  for (AttributeId id : ids) attrs.push_back(&dataset->attributes[id]);
  const bool attributes_unchanged =
      ComponentRefresh::AttributesUnchanged(*model, attrs);

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
  // A call that re-solves an old row with observations changes what kept
  // sums read, so it cannot resume. It keeps no sums either: a stream
  // whose deltas all do so (new sensors re-solving observed neighbours)
  // then never pays for copying Theta. Decided before the Jacobi rounds
  // overwrite the re-solved rows.
  const bool refresh = options.refresh_components && !attrs.empty();
  const bool keep = refresh && !ResolvesObservedRow(rows, old_nodes, attrs);
  const bool resume = keep && attributes_unchanged &&
                      ComponentRefresh::ThetaUnchanged(*model, old_nodes);

  // Grow Theta: survivors keep their rows, new nodes start uniform and
  // are solved by the Jacobi rounds below (every new node is touched).
  const size_t num_clusters = model->num_clusters();
  model->theta.AppendRows(n - old_nodes,
                          1.0 / static_cast<double>(num_clusters));

  // Every touched row is one query of a single plan over all of its
  // out-links, built after the growth so the core sees the grown Theta.
  // Evidence read from the grown dataset (targets < n, weights checked by
  // GrowDataset, terms inside the model's vocabulary, counts bounded
  // after repeated terms are summed) cannot fail planning, so nothing
  // after GrowDataset can fail.
  std::vector<NewObjectQuery> queries;
  queries.reserve(rows.size());
  for (NodeId v : rows) {
    queries.push_back(FoldInQuery(dataset->network, v, n, attrs));
  }
  const ServeCore core(&dataset->network, model);
  const InferPlan plan = core.Plan(queries);
  GENCLUS_CHECK_EQ(plan.num_rows(), rows.size());

  // Jacobi rounds: each round re-solves every touched row against the
  // previous round's Theta. A round's answers reach Theta only once all
  // are solved, so the result is independent of the iteration order.
  for (size_t round = 0; round < options.rounds; ++round) {
    const InferenceResult result = core.Execute(plan, /*pool=*/nullptr);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::ranges::copy(result.membership(i), model->theta.Row(rows[i]));
    }
  }

  if (refresh) {
    report.refreshed_rows = ComponentRefresh::Refresh(
        dataset, model, ids, attrs, rows, resume, keep);
  } else {
    ComponentRefresh::Drop(model);
  }

  report.seconds = timer.Seconds();
  return report;
}

}  // namespace genclus
