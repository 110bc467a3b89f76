// A Dataset binds a Network with its attributes and optional ground-truth
// labels — the full clustering input of §2.2 (network, specified attribute
// subset, and for evaluation the labeled subsets).
#pragma once

#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "hin/attributes.h"
#include "hin/network.h"

namespace genclus {

/// Ground-truth cluster labels for a (subset of) nodes; kUnlabeled elsewhere.
class Labels {
 public:
  Labels() = default;
  explicit Labels(size_t num_nodes)
      : labels_(num_nodes, kUnlabeled) {}

  void Set(NodeId v, uint32_t label) {
    GENCLUS_CHECK_LT(v, labels_.size());
    labels_[v] = label;
  }
  uint32_t Get(NodeId v) const {
    GENCLUS_CHECK_LT(v, labels_.size());
    return labels_[v];
  }
  bool IsLabeled(NodeId v) const { return Get(v) != kUnlabeled; }
  /// Extends to `num_nodes` >= size() nodes; the new ones are unlabeled.
  void Grow(size_t num_nodes) {
    GENCLUS_CHECK_GE(num_nodes, labels_.size());
    labels_.resize(num_nodes, kUnlabeled);
  }
  size_t size() const { return labels_.size(); }
  size_t NumLabeled() const;

  const std::vector<uint32_t>& raw() const { return labels_; }

 private:
  std::vector<uint32_t> labels_;
};

/// Network + attributes + labels. Attribute order defines AttributeId.
struct Dataset {
  Network network;
  std::vector<Attribute> attributes;
  Labels labels;

  /// Checks internal consistency: attribute/label sizes match the network.
  Status Validate() const;

  /// Attribute lookup by name; kInvalidAttribute when absent.
  AttributeId FindAttribute(const std::string& name) const;
};

}  // namespace genclus
