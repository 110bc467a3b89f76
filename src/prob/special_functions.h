// Special functions for the strength learner's pseudo-likelihood: the
// gradient (Eq. 16) needs digamma, the Hessian (Eq. 17) needs trigamma,
// and the local partition functions are Dirichlet normalizers log B(alpha).
#pragma once

#include <vector>

namespace genclus {

/// log Gamma(x) for x > 0: bitwise std::lgamma(x), without std::lgamma's
/// store to the process-global signgam, so pool workers may call it
/// concurrently. Every log-gamma in the library goes through here.
double LogGamma(double x);

/// Digamma psi(x) = d/dx log Gamma(x), x > 0. Accurate to ~1e-12 via
/// upward recurrence + asymptotic series.
double Digamma(double x);

/// Trigamma psi'(x) = d^2/dx^2 log Gamma(x), x > 0.
double Trigamma(double x);

/// Multivariate Beta: log B(alpha) = sum_k log Gamma(alpha_k)
///                                   - log Gamma(sum_k alpha_k).
/// All alpha_k must be > 0.
double LogMultivariateBeta(const std::vector<double>& alpha);

/// Numerically stable log(sum_i exp(x_i)). Returns -inf for empty input.
double LogSumExp(const std::vector<double>& x);

/// Stable log(exp(a) + exp(b)).
double LogAddExp(double a, double b);

}  // namespace genclus
