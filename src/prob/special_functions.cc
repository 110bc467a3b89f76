#include "prob/special_functions.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace genclus {

double LogGamma(double x) {
  GENCLUS_DCHECK(x > 0.0);
  // lgamma_r runs the same glibc kernel as std::lgamma, so the value is
  // the same bits, but it hands the sign of Gamma(x) to a local instead
  // of storing it to the process-global signgam on every call — a store
  // all pool workers would share.
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

double Digamma(double x) {
  GENCLUS_CHECK_MSG(x > 0.0, "Digamma requires x > 0");
  // Shift x upward until the asymptotic expansion is accurate, collecting
  // the recurrence terms psi(x) = psi(x+1) - 1/x.
  double result = 0.0;
  while (x < 12.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  // Asymptotic series: psi(x) ~ ln x - 1/(2x) - sum B_2n / (2n x^{2n}).
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv;
  result -= inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 -
                    inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0)))));
  return result;
}

double Trigamma(double x) {
  GENCLUS_CHECK_MSG(x > 0.0, "Trigamma requires x > 0");
  // Recurrence psi'(x) = psi'(x+1) + 1/x^2, then asymptotic series.
  double result = 0.0;
  while (x < 12.0) {
    result += 1.0 / (x * x);
    x += 1.0;
  }
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  // psi'(x) ~ 1/x + 1/(2x^2) + sum B_2n / x^{2n+1}.
  result += inv * (1.0 + 0.5 * inv +
                   inv2 * (1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 *
                           (1.0 / 42.0 - inv2 * (1.0 / 30.0)))));
  return result;
}

double LogMultivariateBeta(const std::vector<double>& alpha) {
  GENCLUS_CHECK(!alpha.empty());
  double sum_alpha = 0.0;
  double sum_lgamma = 0.0;
  for (double a : alpha) {
    GENCLUS_DCHECK(a > 0.0);
    sum_alpha += a;
    sum_lgamma += LogGamma(a);
  }
  return sum_lgamma - LogGamma(sum_alpha);
}

double LogSumExp(const std::vector<double>& x) {
  if (x.empty()) return -std::numeric_limits<double>::infinity();
  const double m = *std::max_element(x.begin(), x.end());
  if (!std::isfinite(m)) return m;  // all -inf (or a +inf dominates)
  double acc = 0.0;
  for (double v : x) acc += std::exp(v - m);
  return m + std::log(acc);
}

double LogAddExp(double a, double b) {
  if (a < b) std::swap(a, b);
  if (!std::isfinite(a)) return a;
  return a + std::log1p(std::exp(b - a));
}

}  // namespace genclus
