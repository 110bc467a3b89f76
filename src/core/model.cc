#include "core/model.h"

#include <cmath>
#include <limits>

#include "common/string_util.h"

namespace genclus {

namespace {

// How far a stored distribution's sum may drift from 1.
constexpr double kSimplexTolerance = 1e-9;

// Whether `row` is a distribution: every entry finite and >= 0, the sum
// within kSimplexTolerance of 1.
bool OnSimplex(const double* row, size_t size) {
  double sum = 0.0;
  for (size_t i = 0; i < size; ++i) {
    // NaN fails both comparisons, -inf the first and +inf the second.
    if (!(row[i] >= 0.0 && row[i] <= std::numeric_limits<double>::max())) {
      return false;
    }
    sum += row[i];
  }
  return std::abs(sum - 1.0) <= kSimplexTolerance;
}

}  // namespace

std::vector<uint32_t> Model::HardLabels() const { return RowArgMax(theta); }

Status Model::Validate() const {
  if (theta.cols() < 2) {
    return Status::FailedPrecondition("model has no clustering (K < 2)");
  }
  for (size_t v = 0; v < theta.rows(); ++v) {
    if (!OnSimplex(theta.Row(v), theta.cols())) {
      return Status::InvalidArgument(StrFormat(
          "model theta row %zu is not a distribution (entries finite and "
          ">= 0, summing to 1)",
          v));
    }
  }
  if (gamma.size() != link_types.size()) {
    return Status::InvalidArgument(StrFormat(
        "model has %zu gamma entries but %zu link-type names", gamma.size(),
        link_types.size()));
  }
  for (double g : gamma) {
    if (!std::isfinite(g) || g < 0.0) {
      return Status::InvalidArgument("model gamma must be finite and >= 0");
    }
  }
  if (components.size() != attributes.size()) {
    return Status::InvalidArgument(StrFormat(
        "model has %zu components but %zu attribute records",
        components.size(), attributes.size()));
  }
  for (size_t a = 0; a < components.size(); ++a) {
    const AttributeComponents& comp = components[a];
    const ModelAttributeInfo& info = attributes[a];
    if (comp.kind() != info.kind) {
      return Status::InvalidArgument(StrFormat(
          "attribute '%s': component kind does not match metadata",
          info.name.c_str()));
    }
    if (comp.num_clusters() != num_clusters()) {
      return Status::InvalidArgument(StrFormat(
          "attribute '%s': components for %zu clusters, model has %zu",
          info.name.c_str(), comp.num_clusters(), num_clusters()));
    }
    if (info.kind != AttributeKind::kCategorical) continue;
    const Matrix& beta = comp.beta();
    if (beta.cols() != info.vocab_size) {
      return Status::InvalidArgument(StrFormat(
          "attribute '%s': beta vocabulary %zu does not match declared %zu",
          info.name.c_str(), beta.cols(), info.vocab_size));
    }
    for (size_t k = 0; k < beta.rows(); ++k) {
      if (!OnSimplex(beta.Row(k), beta.cols())) {
        return Status::InvalidArgument(StrFormat(
            "attribute '%s': beta row %zu is not a distribution (entries "
            "finite and >= 0, summing to 1)",
            info.name.c_str(), k));
      }
    }
  }
  return Status::OK();
}

namespace {

// Link-type name check shared by both network-compatibility validators.
Status CheckSchemaLinkTypes(const std::vector<std::string>& link_types,
                            const Schema& schema) {
  if (link_types.size() != schema.num_link_types()) {
    return Status::InvalidArgument(StrFormat(
        "model trained with %zu link types, schema declares %zu",
        link_types.size(), schema.num_link_types()));
  }
  for (LinkTypeId r = 0; r < link_types.size(); ++r) {
    if (schema.link_type(r).name != link_types[r]) {
      return Status::InvalidArgument(StrFormat(
          "link type %u is '%s' in the model but '%s' in the schema",
          r, link_types[r].c_str(), schema.link_type(r).name.c_str()));
    }
  }
  return Status::OK();
}

}  // namespace

Status Model::ValidateAgainst(const Network& network) const {
  GENCLUS_RETURN_IF_ERROR(Validate());
  if (num_nodes() != network.num_nodes()) {
    return Status::InvalidArgument(StrFormat(
        "model trained on %zu nodes, network has %zu", num_nodes(),
        network.num_nodes()));
  }
  return CheckSchemaLinkTypes(link_types, network.schema());
}

Status Model::ValidateForServing(const Network& network) const {
  GENCLUS_RETURN_IF_ERROR(Validate());
  if (num_nodes() < network.num_nodes()) {
    return Status::InvalidArgument(StrFormat(
        "model covers %zu nodes, network has %zu", num_nodes(),
        network.num_nodes()));
  }
  return CheckSchemaLinkTypes(link_types, network.schema());
}

}  // namespace genclus
