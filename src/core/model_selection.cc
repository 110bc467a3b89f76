#include "core/model_selection.h"

#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "core/engine.h"
#include "core/objective.h"

namespace genclus {

double CountModelParameters(const Dataset& dataset,
                            const std::vector<std::string>& attributes,
                            size_t num_clusters) {
  const double k = static_cast<double>(num_clusters);
  double params =
      static_cast<double>(dataset.network.num_nodes()) * (k - 1.0);
  for (const std::string& name : attributes) {
    AttributeId id = dataset.FindAttribute(name);
    if (id == kInvalidAttribute) continue;
    const Attribute& attr = dataset.attributes[id];
    if (attr.kind() == AttributeKind::kCategorical) {
      params += k * (static_cast<double>(attr.vocab_size()) - 1.0);
    } else {
      params += 2.0 * k;  // mean and variance per component
    }
  }
  params += static_cast<double>(dataset.network.schema().num_link_types());
  return params;
}

Result<ModelSelectionResult> SelectNumClusters(
    const Dataset& dataset, const std::vector<std::string>& attributes,
    const GenClusConfig& config, size_t min_clusters, size_t max_clusters,
    SelectionCriterion criterion) {
  if (min_clusters < 2 || min_clusters > max_clusters) {
    return Status::InvalidArgument(
        StrFormat("bad K range [%zu, %zu]", min_clusters, max_clusters));
  }

  // Sample size for BIC: total observations across specified attributes.
  double sample_size = 0.0;
  for (const std::string& name : attributes) {
    AttributeId id = dataset.FindAttribute(name);
    if (id == kInvalidAttribute) {
      return Status::NotFound(
          StrFormat("attribute '%s' not in dataset", name.c_str()));
    }
    sample_size += dataset.attributes[id].TotalObservations();
  }
  if (sample_size <= 0.0) {
    return Status::FailedPrecondition(
        "model selection needs at least one attribute observation");
  }

  ModelSelectionResult result;
  double best_score = std::numeric_limits<double>::infinity();
  FitOptions options;
  options.attributes = attributes;
  for (size_t k = min_clusters; k <= max_clusters; ++k) {
    options.config = config;
    options.config.num_clusters = k;
    GENCLUS_ASSIGN_OR_RETURN(FitResult fit, Engine::Fit(dataset, options));
    // Attribute log-likelihood at the fit.
    std::vector<const Attribute*> attrs;
    for (const std::string& name : attributes) {
      attrs.push_back(&dataset.attributes[dataset.FindAttribute(name)]);
    }
    const double log_likelihood = TotalAttributeLogLikelihood(
        attrs, fit.model.components, fit.model.theta);

    ModelSelectionEntry entry;
    entry.num_clusters = k;
    entry.log_likelihood = log_likelihood;
    entry.num_parameters = CountModelParameters(dataset, attributes, k);
    entry.score =
        criterion == SelectionCriterion::kAic
            ? 2.0 * entry.num_parameters - 2.0 * log_likelihood
            : entry.num_parameters * std::log(sample_size) -
                  2.0 * log_likelihood;
    if (entry.score < best_score) {
      best_score = entry.score;
      result.best_num_clusters = k;
    }
    result.entries.push_back(entry);
  }
  return result;
}

}  // namespace genclus
