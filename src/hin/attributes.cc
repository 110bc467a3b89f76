#include "hin/attributes.h"

#include <cmath>

#include "common/check.h"
#include "common/string_util.h"

namespace genclus {

namespace {
const std::vector<TermCount> kEmptyTermCounts;
const std::vector<double> kEmptyValues;
}  // namespace

Attribute::Attribute(std::string name, AttributeKind kind, size_t vocab_size,
                     size_t num_nodes)
    : name_(std::move(name)),
      kind_(kind),
      vocab_size_(vocab_size),
      num_nodes_(num_nodes) {
  if (kind_ == AttributeKind::kCategorical) {
    term_counts_.resize(num_nodes_);
  } else {
    values_.resize(num_nodes_);
  }
}

Attribute Attribute::Categorical(std::string name, size_t vocab_size,
                                 size_t num_nodes) {
  GENCLUS_CHECK_GT(vocab_size, 0u);
  return Attribute(std::move(name), AttributeKind::kCategorical, vocab_size,
                   num_nodes);
}

Attribute Attribute::Numerical(std::string name, size_t num_nodes) {
  return Attribute(std::move(name), AttributeKind::kNumerical, 0, num_nodes);
}

size_t Attribute::vocab_size() const {
  GENCLUS_CHECK(kind_ == AttributeKind::kCategorical);
  return vocab_size_;
}

Status Attribute::CheckTermCount(NodeId v, uint32_t term, double count,
                                 size_t num_nodes, double held) const {
  if (kind_ != AttributeKind::kCategorical) {
    return Status::FailedPrecondition(
        StrFormat("attribute '%s' is not categorical", name_.c_str()));
  }
  if (v >= num_nodes) {
    return Status::InvalidArgument(StrFormat(
        "attribute '%s': node %u out of range (%zu nodes)", name_.c_str(), v,
        num_nodes));
  }
  if (term >= vocab_size_) {
    return Status::InvalidArgument(
        StrFormat("term %u out of vocabulary (size %zu)", term, vocab_size_));
  }
  if (!(count > 0.0) || !std::isfinite(count)) {
    return Status::InvalidArgument(
        StrFormat("attribute '%s': term count must be positive finite",
                  name_.c_str()));
  }
  if (count > kMaxObservationMagnitude) {
    return Status::InvalidArgument(
        StrFormat("attribute '%s': term count %g exceeds %g", name_.c_str(),
                  count, kMaxObservationMagnitude));
  }
  if (held + count > kMaxObservationMagnitude) {
    return Status::InvalidArgument(StrFormat(
        "attribute '%s': node %u's count of term %u would total %g, above %g",
        name_.c_str(), v, term, held + count, kMaxObservationMagnitude));
  }
  return Status::OK();
}

Status Attribute::CheckValue(NodeId v, double value, size_t num_nodes) const {
  if (kind_ != AttributeKind::kNumerical) {
    return Status::FailedPrecondition(
        StrFormat("attribute '%s' is not numerical", name_.c_str()));
  }
  if (v >= num_nodes) {
    return Status::InvalidArgument(StrFormat(
        "attribute '%s': node %u out of range (%zu nodes)", name_.c_str(), v,
        num_nodes));
  }
  if (!std::isfinite(value)) {
    return Status::InvalidArgument(StrFormat(
        "attribute '%s': value must be finite", name_.c_str()));
  }
  if (std::abs(value) > kMaxObservationMagnitude) {
    return Status::InvalidArgument(
        StrFormat("attribute '%s': value %g exceeds %g in magnitude",
                  name_.c_str(), value, kMaxObservationMagnitude));
  }
  return Status::OK();
}

Status Attribute::AddTermCount(NodeId v, uint32_t term, double count) {
  GENCLUS_RETURN_IF_ERROR(CheckTermCount(v, term, count, num_nodes_));
  for (TermCount& tc : term_counts_[v]) {
    if (tc.term == term) {
      GENCLUS_RETURN_IF_ERROR(
          CheckTermCount(v, term, count, num_nodes_, tc.count));
      stamp_ = 0;
      tc.count += count;
      return Status::OK();
    }
  }
  stamp_ = 0;
  term_counts_[v].push_back({term, count});
  return Status::OK();
}

double Attribute::HeldCount(NodeId v, uint32_t term) const {
  if (kind_ != AttributeKind::kCategorical || v >= num_nodes_) return 0.0;
  for (const TermCount& tc : term_counts_[v]) {
    if (tc.term == term) return tc.count;
  }
  return 0.0;
}

Status Attribute::AddValue(NodeId v, double value) {
  GENCLUS_RETURN_IF_ERROR(CheckValue(v, value, num_nodes_));
  stamp_ = 0;
  values_[v].push_back(value);
  return Status::OK();
}

void Attribute::Grow(size_t num_nodes) {
  GENCLUS_CHECK_GE(num_nodes, num_nodes_);
  stamp_ = 0;
  num_nodes_ = num_nodes;
  if (kind_ == AttributeKind::kCategorical) {
    term_counts_.resize(num_nodes_);
  } else {
    values_.resize(num_nodes_);
  }
}

bool Attribute::HasObservations(NodeId v) const {
  GENCLUS_CHECK_LT(v, num_nodes_);
  if (kind_ == AttributeKind::kCategorical) return !term_counts_[v].empty();
  return !values_[v].empty();
}

const std::vector<TermCount>& Attribute::TermCounts(NodeId v) const {
  GENCLUS_CHECK(kind_ == AttributeKind::kCategorical);
  GENCLUS_CHECK_LT(v, num_nodes_);
  return term_counts_[v].empty() ? kEmptyTermCounts : term_counts_[v];
}

const std::vector<double>& Attribute::Values(NodeId v) const {
  GENCLUS_CHECK(kind_ == AttributeKind::kNumerical);
  GENCLUS_CHECK_LT(v, num_nodes_);
  return values_[v].empty() ? kEmptyValues : values_[v];
}

double Attribute::TotalObservations() const {
  double total = 0.0;
  if (kind_ == AttributeKind::kCategorical) {
    for (const auto& bag : term_counts_) {
      for (const TermCount& tc : bag) total += tc.count;
    }
  } else {
    for (const auto& list : values_) total += static_cast<double>(list.size());
  }
  return total;
}

size_t Attribute::NumObservedNodes() const {
  size_t n = 0;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    if (HasObservations(v)) ++n;
  }
  return n;
}

void Attribute::SetTermNames(std::vector<std::string> names) {
  GENCLUS_CHECK(kind_ == AttributeKind::kCategorical);
  GENCLUS_CHECK_EQ(names.size(), vocab_size_);
  stamp_ = 0;
  term_names_ = std::move(names);
}

}  // namespace genclus
