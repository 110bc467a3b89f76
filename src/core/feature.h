// The cross entropy-based feature function of §3.3 (Eq. 6) and the
// structural-consistency score it induces. For a link e = <v_i, v_j> of
// relation r:
//
//   f(theta_i, theta_j, e, gamma) = gamma(r) * w(e) * sum_k theta_jk log theta_ik
//                                 = -gamma(r) * w(e) * H(theta_j, theta_i)
//
// Desiderata (verified by tests/core/feature_test.cc):
//   1. f increases as theta_i and theta_j become more similar;
//   2. f decreases as gamma(r) or w(e) grow (stronger relations demand
//      more similarity for the same consistency level);
//   3. f is asymmetric in (theta_i, theta_j).
#pragma once

#include <span>
#include <vector>

#include "hin/network.h"
#include "linalg/matrix.h"

namespace genclus {

/// f for a single link given membership rows of the source (theta_i) and
/// target (theta_j). Components of theta_i are floored at
/// kDefaultThetaFloor before the log.
double LinkFeature(std::span<const double> theta_i,
                   std::span<const double> theta_j, double gamma_r,
                   double weight);

/// Unweighted core of the feature: sum_k theta_jk log theta_ik (<= 0).
double CrossEntropyScore(std::span<const double> theta_i,
                         std::span<const double> theta_j);

/// The source-node factor of CrossEntropyScore: log_theta_i[k] =
/// log max(theta_ik, kDefaultThetaFloor). A caller scoring every out-link
/// of one node takes these logs once per node instead of once per link.
void FlooredLogTheta(std::span<const double> theta_i,
                     std::span<double> log_theta_i);

/// CrossEntropyScore(theta_i, theta_j) from FlooredLogTheta(theta_i):
/// the same operations on the same values, so the same bits.
double CrossEntropyScoreFromLogs(std::span<const double> log_theta_i,
                                 std::span<const double> theta_j);

/// Sum of f over every link of the network: the exponent of the log-linear
/// structural model (Eq. 7) up to the partition function.
double StructuralScore(const Network& network, const Matrix& theta,
                       const std::vector<double>& gamma);

/// Structural score restricted to one relation, with gamma(r) factored out:
/// sum over links of type r of w(e) * sum_k theta_jk log theta_ik. The full
/// score is sum_r gamma(r) * PerRelationScore(r).
double PerRelationScore(const Network& network, const Matrix& theta,
                        LinkTypeId relation);

}  // namespace genclus
