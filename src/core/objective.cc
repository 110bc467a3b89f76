#include "core/objective.h"

#include <cmath>

#include "common/check.h"
#include "core/feature.h"
#include "prob/special_functions.h"

namespace genclus {

double AttributeLogLikelihood(const Attribute& attribute,
                              const AttributeComponents& components,
                              const Matrix& theta) {
  const size_t num_clusters = theta.cols();
  GENCLUS_CHECK_EQ(components.num_clusters(), num_clusters);
  GENCLUS_CHECK_EQ(attribute.num_nodes(), theta.rows());

  double total = 0.0;
  if (attribute.kind() == AttributeKind::kCategorical) {
    const Matrix& beta = components.beta();
    for (NodeId v = 0; v < attribute.num_nodes(); ++v) {
      const auto& bag = attribute.TermCounts(v);
      if (bag.empty()) continue;
      const double* theta_v = theta.Row(v);
      for (const TermCount& tc : bag) {
        double p = 0.0;
        for (size_t k = 0; k < num_clusters; ++k) {
          p += theta_v[k] * beta(k, tc.term);
        }
        // Guard against components that assign zero mass everywhere; the
        // smoothing in the M-step normally prevents this.
        total += tc.count * std::log(p > 0.0 ? p : 1e-300);
      }
    }
  } else {
    // Each Gaussian's normalizer once per call and log theta_vk once per
    // node; per observation, the rest of GaussianDistribution::LogPdf in
    // its own operation order, so every term keeps its bits.
    std::vector<double> mean(num_clusters);
    std::vector<double> variance(num_clusters);
    std::vector<double> log_norm(num_clusters);
    for (size_t k = 0; k < num_clusters; ++k) {
      const GaussianDistribution& g =
          components.gaussian(static_cast<ClusterId>(k));
      mean[k] = g.mean();
      variance[k] = g.variance();
      log_norm[k] = -0.5 * (kLogTwoPi + std::log(variance[k]));
    }
    std::vector<double> log_theta_v(num_clusters);
    std::vector<double> logs(num_clusters);
    for (NodeId v = 0; v < attribute.num_nodes(); ++v) {
      const auto& values = attribute.Values(v);
      if (values.empty()) continue;
      const double* theta_v = theta.Row(v);
      for (size_t k = 0; k < num_clusters; ++k) {
        const double t = theta_v[k] > 0.0 ? theta_v[k] : 1e-300;
        log_theta_v[k] = std::log(t);
      }
      for (double x : values) {
        for (size_t k = 0; k < num_clusters; ++k) {
          const double d = x - mean[k];
          logs[k] = log_theta_v[k] +
                    (log_norm[k] - d * d / (2.0 * variance[k]));
        }
        total += LogSumExp(logs);
      }
    }
  }
  return total;
}

double TotalAttributeLogLikelihood(
    const std::vector<const Attribute*>& attributes,
    const std::vector<AttributeComponents>& components, const Matrix& theta) {
  GENCLUS_CHECK_EQ(attributes.size(), components.size());
  double total = 0.0;
  for (size_t t = 0; t < attributes.size(); ++t) {
    total += AttributeLogLikelihood(*attributes[t], components[t], theta);
  }
  return total;
}

double G1Objective(const Network& network,
                   const std::vector<const Attribute*>& attributes,
                   const std::vector<AttributeComponents>& components,
                   const Matrix& theta, const std::vector<double>& gamma) {
  return StructuralScore(network, theta, gamma) +
         TotalAttributeLogLikelihood(attributes, components, theta);
}

}  // namespace genclus
