// Attribute storage. Attributes are first-class incomplete: each object
// carries a (possibly empty) bag of observations v[X] (§2.1). Two kinds:
//   * categorical (text): observations are term counts over a vocabulary,
//     modeled by per-cluster categorical components (Eq. 3);
//   * numerical: observations are real values, modeled by per-cluster
//     Gaussians (Eq. 4).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "hin/types.h"

namespace genclus {

enum class AttributeKind {
  kCategorical,
  kNumerical,
};

/// Largest term count and largest value magnitude an attribute accepts.
/// Every M-step sum over up to 2^64 such observations (counts, values and
/// squared values times responsibilities <= 1) stays finite.
inline constexpr double kMaxObservationMagnitude = 1e100;

/// One sparse term-count entry of a categorical observation bag.
struct TermCount {
  uint32_t term;
  double count;
};

/// One attribute X over all nodes of a network. Construct with the matching
/// factory, then add observations keyed by node id. Nodes with no
/// observations simply never appear (HasObservations(v) == false), which is
/// the incomplete-attribute case the model is designed for.
class Attribute {
 public:
  /// Text-like attribute with `vocab_size` distinct terms.
  static Attribute Categorical(std::string name, size_t vocab_size,
                               size_t num_nodes);

  /// Real-valued attribute.
  static Attribute Numerical(std::string name, size_t num_nodes);

  const std::string& name() const { return name_; }
  AttributeKind kind() const { return kind_; }
  size_t num_nodes() const { return num_nodes_; }

  /// Vocabulary size; only valid for categorical attributes.
  size_t vocab_size() const;

  /// Adds `count` occurrences of `term` to node v's bag (categorical).
  /// Accumulates if the term is already present.
  Status AddTermCount(NodeId v, uint32_t term, double count = 1.0);

  /// Appends a numerical observation to node v's list.
  Status AddValue(NodeId v, double value);

  /// The checks of AddTermCount and AddValue, for an attribute spanning
  /// `num_nodes` nodes: GrowDataset (hin/delta.h) vets observations on
  /// nodes the attribute has yet to grow to. A count must be positive and
  /// a value finite, each at most kMaxObservationMagnitude in magnitude.
  Status CheckTermCount(NodeId v, uint32_t term, double count,
                        size_t num_nodes) const;
  Status CheckValue(NodeId v, double value, size_t num_nodes) const;

  /// Extends the attribute to `num_nodes` >= num_nodes() nodes; the new
  /// nodes carry no observations.
  void Grow(size_t num_nodes);

  /// True if v carries at least one observation of this attribute.
  bool HasObservations(NodeId v) const;

  /// Sparse term counts of node v (categorical; empty when absent).
  const std::vector<TermCount>& TermCounts(NodeId v) const;

  /// Value list of node v (numerical; empty when absent).
  const std::vector<double>& Values(NodeId v) const;

  /// Total observation count across all nodes: sum of counts (categorical)
  /// or number of values (numerical).
  double TotalObservations() const;

  /// Number of nodes with at least one observation.
  size_t NumObservedNodes() const;

  /// Optional human-readable term names (categorical); empty if unset.
  void SetTermNames(std::vector<std::string> names);
  const std::vector<std::string>& term_names() const { return term_names_; }

 private:
  Attribute(std::string name, AttributeKind kind, size_t vocab_size,
            size_t num_nodes);

  std::string name_;
  AttributeKind kind_;
  size_t vocab_size_;
  size_t num_nodes_;
  // Indexed by node id; exactly one of these is populated per kind.
  std::vector<std::vector<TermCount>> term_counts_;
  std::vector<std::vector<double>> values_;
  std::vector<std::string> term_names_;
  // Content stamp for ApplyUpdates' kept component sums (core/update.cc):
  // 0 = none. Every mutator resets it with a plain store; only
  // ApplyUpdates sets a fresh process-unique one, after growing.
  friend class ComponentRefresh;
  uint64_t stamp_ = 0;
};

}  // namespace genclus
