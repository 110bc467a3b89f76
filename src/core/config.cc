#include "core/config.h"

#include <cmath>

#include "common/string_util.h"

namespace genclus {

namespace {

bool FiniteNonNegative(double x) { return std::isfinite(x) && x >= 0.0; }

bool FinitePositive(double x) { return std::isfinite(x) && x > 0.0; }

}  // namespace

Status GenClusConfig::Validate(size_t num_link_types) const {
  if (num_clusters < 2) {
    return Status::InvalidArgument("num_clusters must be >= 2");
  }
  if (outer_iterations < 1) {
    return Status::InvalidArgument("outer_iterations must be >= 1");
  }
  if (em_iterations < 1) {
    return Status::InvalidArgument("em_iterations must be >= 1");
  }
  if (newton_iterations < 1) {
    return Status::InvalidArgument("newton_iterations must be >= 1");
  }
  if (num_init_seeds < 1) {
    return Status::InvalidArgument("num_init_seeds must be >= 1");
  }
  if (!FiniteNonNegative(outer_tolerance)) {
    return Status::InvalidArgument(
        "outer_tolerance must be finite and >= 0");
  }
  if (!FiniteNonNegative(em_tolerance)) {
    return Status::InvalidArgument("em_tolerance must be finite and >= 0");
  }
  if (!FiniteNonNegative(newton_tolerance)) {
    return Status::InvalidArgument(
        "newton_tolerance must be finite and >= 0");
  }
  if (!FinitePositive(gamma_prior_sigma)) {
    return Status::InvalidArgument("gamma_prior_sigma must be > 0");
  }
  if (!FinitePositive(theta_floor) || theta_floor >= 1.0 / num_clusters) {
    return Status::InvalidArgument(
        "theta_floor must be in (0, 1/num_clusters)");
  }
  if (!FiniteNonNegative(beta_smoothing)) {
    return Status::InvalidArgument(
        "beta_smoothing must be finite and >= 0");
  }
  if (!FinitePositive(variance_floor)) {
    return Status::InvalidArgument("variance_floor must be > 0");
  }
  if (!initial_gamma.empty()) {
    if (initial_gamma.size() != num_link_types) {
      return Status::InvalidArgument(StrFormat(
          "initial_gamma has %zu entries, schema declares %zu link types",
          initial_gamma.size(), num_link_types));
    }
    for (double g : initial_gamma) {
      if (!FiniteNonNegative(g)) {
        return Status::InvalidArgument(
            "initial_gamma entries must be finite and >= 0");
      }
    }
  }
  return Status::OK();
}

}  // namespace genclus
