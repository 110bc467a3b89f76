// Model selection for the number of clusters K. §2.2 leaves choosing K to
// standard criteria (AIC/BIC); this helper runs Engine::Fit over a K range
// and scores each fit. The likelihood term is the attribute log-likelihood
// (the structural term's partition function is intractable and identical
// pressure applies at every K, so it is excluded — a common pragmatic
// choice for network-regularized mixtures).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "hin/dataset.h"

namespace genclus {

enum class SelectionCriterion {
  kAic,  // 2p - 2 log L
  kBic,  // p log n - 2 log L
};

/// One candidate K's fit and score.
struct ModelSelectionEntry {
  size_t num_clusters = 0;
  double log_likelihood = 0.0;  // attribute log-likelihood at the fit
  double num_parameters = 0.0;
  double score = 0.0;  // lower is better (AIC/BIC convention)
};

struct ModelSelectionResult {
  std::vector<ModelSelectionEntry> entries;  // in K order
  size_t best_num_clusters = 0;              // argmin score
};

/// Effective parameter count for a fit: (K-1) free membership components
/// per object plus the component parameters of each attribute
/// (K*(vocab-1) categorical, 2K Gaussian) plus |R| strengths.
double CountModelParameters(const Dataset& dataset,
                            const std::vector<std::string>& attributes,
                            size_t num_clusters);

/// Fits a model for each K in [min_clusters, max_clusters] (config's
/// num_clusters is overridden) and scores with the criterion. The sample
/// size for BIC is the total observation count of the specified
/// attributes.
Result<ModelSelectionResult> SelectNumClusters(
    const Dataset& dataset, const std::vector<std::string>& attributes,
    const GenClusConfig& config, size_t min_clusters, size_t max_clusters,
    SelectionCriterion criterion = SelectionCriterion::kBic);

}  // namespace genclus
