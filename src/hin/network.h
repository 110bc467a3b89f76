// The heterogeneous information network G = (V, E, W): typed nodes and
// typed weighted directed links. Links are stored once, as one out-CSR per
// relation (W_r, row v holding v's out-links of relation r): the shape the
// EM inner loop's SpMM scans and the only adjacency there is. GenClus reads
// links only as typed out-neighbourhoods, so there is no in-adjacency.
// NetworkBuilder builds one; after that the only mutator is GrowDataset
// (hin/delta.h), which appends nodes and merges links into the relation
// rows in place. Every other caller sees an immutable Network.
#pragma once

#include <cstddef>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "hin/schema.h"
#include "hin/types.h"

namespace genclus {

/// One directed link endpoint as seen from a fixed node: the neighbor, the
/// relation, and the input weight w(e).
struct LinkEntry {
  NodeId neighbor;
  LinkTypeId type;
  double weight;
};

/// SoA view of one relation's out-adjacency: the CSR matrix W_r over all
/// nodes, with neighbor ids and weights in contiguous arrays. Row v spans
/// [row_offsets[v], row_offsets[v + 1]); neighbors are ascending within a
/// row. This is the shape the EM E-step's SpMM kernel consumes (the link
/// term of Eq. 10 is sum_r gamma_r * W_r Theta).
struct RelationCsr {
  std::span<const size_t> row_offsets;  // num_nodes + 1
  std::span<const NodeId> neighbors;
  std::span<const double> weights;

  size_t nnz() const { return neighbors.size(); }
};

class Network;
struct Dataset;
struct NetworkDelta;

/// The out-links of one node across every relation: the node's row of each
/// relation's CSR in turn, so links run in relation order and, within a
/// relation, by ascending neighbor. Elements are LinkEntry values built on
/// the fly (range-for as `const LinkEntry&` binds each to a temporary);
/// there is no indexing. A view: valid until the network grows.
class OutLinkView {
 public:
  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;  // yields values
    using value_type = LinkEntry;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;  // the end

    LinkEntry operator*() const { return {*neighbor_, type_, *weight_}; }
    Iterator& operator++() {
      ++weight_;
      if (++neighbor_ == row_end_) Seek(type_ + 1);
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    // Every position but the end addresses a distinct stored link.
    bool operator==(const Iterator& other) const {
      return neighbor_ == other.neighbor_;
    }

   private:
    friend class OutLinkView;
    Iterator(const Network* network, NodeId v) : network_(network), v_(v) {
      Seek(0);
    }
    // Moves to the first link of relation `type` or a later one; to the
    // end when there is none.
    void Seek(LinkTypeId type);

    const Network* network_ = nullptr;
    NodeId v_ = 0;
    LinkTypeId type_ = 0;
    const NodeId* neighbor_ = nullptr;
    const NodeId* row_end_ = nullptr;
    const double* weight_ = nullptr;
  };

  OutLinkView(const Network* network, NodeId v) : network_(network), v_(v) {}

  Iterator begin() const { return Iterator(network_, v_); }
  Iterator end() const { return Iterator(); }
  bool empty() const { return begin() == end(); }
  size_t size() const;

 private:
  const Network* network_;
  NodeId v_;
};

/// The rules every node and link of a Network satisfies, shared by
/// NetworkBuilder and GrowDataset (hin/delta.h) so both accept exactly the
/// same inputs. CheckNode vets a node of object type `type` joining a
/// network of `num_nodes` nodes. CheckLink vets a src -> dst link of
/// relation `type` with weight `weight` among nodes whose object types are
/// `node_types` (indexed by node id): both endpoints must exist, the
/// relation must be declared, the weight positive and finite, and the
/// endpoint types those the schema declares for the relation.
Status CheckNode(const Schema& schema, ObjectTypeId type, size_t num_nodes);
Status CheckLink(const Schema& schema,
                 std::span<const ObjectTypeId> node_types, NodeId src,
                 NodeId dst, LinkTypeId type, double weight);

/// Accumulates nodes and links, validates them against the schema, and
/// produces an immutable Network.
class NetworkBuilder {
 public:
  explicit NetworkBuilder(Schema schema) : schema_(std::move(schema)) {}

  /// Adds an object of the given type; `name` is for reporting only and
  /// need not be unique. Returns the dense node id.
  Result<NodeId> AddNode(ObjectTypeId type, std::string name = "");

  /// Adds a directed link src -> dst of relation `type` with weight > 0.
  /// Endpoint object types must match the schema's declaration.
  Status AddLink(NodeId src, NodeId dst, LinkTypeId type, double weight = 1.0);

  size_t num_nodes() const { return node_types_.size(); }
  size_t num_links() const { return link_srcs_.size(); }

  /// Finalizes into a Network. The builder is consumed.
  Result<Network> Build() &&;

 private:
  Schema schema_;
  std::vector<ObjectTypeId> node_types_;
  std::vector<std::string> node_names_;
  std::vector<NodeId> link_srcs_;
  std::vector<NodeId> link_dsts_;
  std::vector<LinkTypeId> link_types_;
  std::vector<double> link_weights_;
};

/// Typed directed graph whose links live in one out-CSR per relation;
/// immutable except through GrowDataset.
class Network {
 public:
  Network() = default;

  const Schema& schema() const { return schema_; }
  size_t num_nodes() const { return node_types_.size(); }
  size_t num_links() const {
    size_t links = 0;
    for (const RelationRows& rows : relations_) links += rows.neighbors.size();
    return links;
  }

  ObjectTypeId node_type(NodeId v) const {
    GENCLUS_DCHECK(v < node_types_.size());
    return node_types_[v];
  }
  const std::string& node_name(NodeId v) const {
    GENCLUS_DCHECK(v < node_names_.size());
    return node_names_[v];
  }

  /// All nodes of one object type, in id order.
  const std::vector<NodeId>& NodesOfType(ObjectTypeId t) const;

  /// Out-links of v (v is the source): v's row of every relation's OutCsr,
  /// in relation order, each row by ascending neighbor. Among parallel
  /// links (same neighbor and relation) Build's row sort fixes the order,
  /// and a link added by GrowDataset follows the equal ones already there.
  OutLinkView OutLinks(NodeId v) const {
    GENCLUS_DCHECK(v < node_types_.size());
    return {this, v};
  }

  size_t OutDegree(NodeId v) const {
    GENCLUS_DCHECK(v < node_types_.size());
    size_t degree = 0;
    for (const RelationRows& rows : relations_) {
      degree += rows.offsets[v + 1] - rows.offsets[v];
    }
    return degree;
  }

  /// Out-adjacency of one relation as a CSR matrix over all nodes. The
  /// arrays are the network's link store, so the view costs nothing to
  /// obtain; it stays valid until the network grows.
  RelationCsr OutCsr(LinkTypeId r) const {
    GENCLUS_DCHECK(r < relations_.size());
    const RelationRows& rows = relations_[r];
    return {rows.offsets, rows.neighbors, rows.weights};
  }

  /// Number of links of each relation across the whole network.
  const std::vector<size_t>& LinkCountsByType() const {
    return link_counts_by_type_;
  }

  /// Sum of link weights of each relation.
  const std::vector<double>& LinkWeightsByType() const {
    return link_weights_by_type_;
  }

  /// Weight of the src -> dst link of relation `type`; 0 when absent, the
  /// first in OutLinks order when there are parallel links.
  double LinkWeight(NodeId src, NodeId dst, LinkTypeId type) const;

 private:
  friend class NetworkBuilder;
  friend Status GrowDataset(Dataset* dataset,
                            std::span<const NetworkDelta> deltas);

  // One relation's out-adjacency: row v spans [offsets[v], offsets[v + 1])
  // of `neighbors`/`weights`, neighbors ascending. See OutCsr.
  struct RelationRows {
    std::vector<size_t> offsets;  // num_nodes + 1
    std::vector<NodeId> neighbors;
    std::vector<double> weights;
  };

  // GrowDataset's commit step: appends the nodes and links of `deltas`,
  // already checked against `node_types` (the grown node set's types).
  // Each relation's new links are merged into its rows in place.
  void Append(std::vector<ObjectTypeId> node_types,
              std::span<const NetworkDelta> deltas);

  Schema schema_;
  std::vector<ObjectTypeId> node_types_;
  std::vector<std::string> node_names_;
  std::vector<std::vector<NodeId>> nodes_by_type_;

  std::vector<RelationRows> relations_;  // indexed by link type

  std::vector<size_t> link_counts_by_type_;
  std::vector<double> link_weights_by_type_;
};

inline void OutLinkView::Iterator::Seek(LinkTypeId type) {
  const size_t num_relations = network_->schema().num_link_types();
  for (type_ = type; type_ < num_relations; ++type_) {
    const RelationCsr csr = network_->OutCsr(type_);
    const size_t begin = csr.row_offsets[v_];
    const size_t end = csr.row_offsets[v_ + 1];
    if (begin != end) {
      neighbor_ = csr.neighbors.data() + begin;
      row_end_ = csr.neighbors.data() + end;
      weight_ = csr.weights.data() + begin;
      return;
    }
  }
  neighbor_ = nullptr;
}

inline size_t OutLinkView::size() const { return network_->OutDegree(v_); }

}  // namespace genclus
