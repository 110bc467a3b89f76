#include "core/feature.h"

#include <cmath>

#include "common/check.h"
#include "prob/simplex.h"

namespace genclus {

double CrossEntropyScore(std::span<const double> theta_i,
                         std::span<const double> theta_j) {
  GENCLUS_DCHECK(theta_i.size() == theta_j.size());
  double acc = 0.0;
  for (size_t k = 0; k < theta_i.size(); ++k) {
    if (theta_j[k] == 0.0) continue;
    const double ti =
        theta_i[k] < kDefaultThetaFloor ? kDefaultThetaFloor : theta_i[k];
    acc += theta_j[k] * std::log(ti);
  }
  return acc;
}

void FlooredLogTheta(std::span<const double> theta_i,
                     std::span<double> log_theta_i) {
  GENCLUS_DCHECK(theta_i.size() == log_theta_i.size());
  for (size_t k = 0; k < theta_i.size(); ++k) {
    const double ti =
        theta_i[k] < kDefaultThetaFloor ? kDefaultThetaFloor : theta_i[k];
    log_theta_i[k] = std::log(ti);
  }
}

double CrossEntropyScoreFromLogs(std::span<const double> log_theta_i,
                                 std::span<const double> theta_j) {
  GENCLUS_DCHECK(log_theta_i.size() == theta_j.size());
  double acc = 0.0;
  for (size_t k = 0; k < theta_j.size(); ++k) {
    if (theta_j[k] == 0.0) continue;
    acc += theta_j[k] * log_theta_i[k];
  }
  return acc;
}

double LinkFeature(std::span<const double> theta_i,
                   std::span<const double> theta_j, double gamma_r,
                   double weight) {
  return gamma_r * weight * CrossEntropyScore(theta_i, theta_j);
}

double StructuralScore(const Network& network, const Matrix& theta,
                       const std::vector<double>& gamma) {
  GENCLUS_CHECK_EQ(theta.rows(), network.num_nodes());
  GENCLUS_CHECK_EQ(gamma.size(), network.schema().num_link_types());
  const size_t k = theta.cols();
  std::vector<double> log_theta_v(k);
  double total = 0.0;
  for (NodeId v = 0; v < network.num_nodes(); ++v) {
    const auto links = network.OutLinks(v);
    if (links.empty()) continue;
    FlooredLogTheta({theta.Row(v), k}, log_theta_v);
    for (const LinkEntry& e : links) {
      // LinkFeature's gamma_r * weight * score, with score's logs hoisted.
      total += gamma[e.type] * e.weight *
               CrossEntropyScoreFromLogs(log_theta_v,
                                         {theta.Row(e.neighbor), k});
    }
  }
  return total;
}

double PerRelationScore(const Network& network, const Matrix& theta,
                        LinkTypeId relation) {
  GENCLUS_CHECK_EQ(theta.rows(), network.num_nodes());
  GENCLUS_CHECK(network.schema().ValidLinkType(relation));
  const size_t k = theta.cols();
  double total = 0.0;
  for (NodeId v = 0; v < network.num_nodes(); ++v) {
    std::span<const double> theta_v(theta.Row(v), k);
    for (const LinkEntry& e : network.OutLinks(v)) {
      if (e.type != relation) continue;
      std::span<const double> theta_u(theta.Row(e.neighbor), k);
      total += e.weight * CrossEntropyScore(theta_v, theta_u);
    }
  }
  return total;
}

}  // namespace genclus
