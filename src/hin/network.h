// The heterogeneous information network G = (V, E, W): typed nodes, typed
// weighted directed links, CSR adjacency in both directions — the EM inner
// loop scans contiguous out-link (and in-link) ranges. NetworkBuilder
// builds one; after that the only mutator is GrowDataset (hin/delta.h),
// which appends nodes and links in place. Every other caller sees an
// immutable Network.
#pragma once

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

/// Typed directed graph with per-direction CSR adjacency; immutable except
/// through GrowDataset.
class Network {
 public:
  Network() = default;

  const Schema& schema() const { return schema_; }
  size_t num_nodes() const { return node_types_.size(); }
  size_t num_links() const { return out_entries_.size(); }

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

  /// Out-links of v (v is the source), grouped contiguously; the span is
  /// sorted by link type then neighbor.
  std::span<const LinkEntry> OutLinks(NodeId v) const {
    GENCLUS_DCHECK(v < node_types_.size());
    return {out_entries_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }

  /// In-links of v (v is the target); entry.neighbor is the source node.
  std::span<const LinkEntry> InLinks(NodeId v) const {
    GENCLUS_DCHECK(v < node_types_.size());
    return {in_entries_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  size_t OutDegree(NodeId v) const { return OutLinks(v).size(); }
  size_t InDegree(NodeId v) const { return InLinks(v).size(); }

  /// Out-adjacency of one relation as a CSR matrix over all nodes. The
  /// arrays are materialized at Build time, so the view costs nothing to
  /// obtain; it stays valid until the network grows.
  RelationCsr OutCsr(LinkTypeId r) const {
    GENCLUS_DCHECK(r < typed_out_offsets_.size());
    return {typed_out_offsets_[r], typed_out_neighbors_[r],
            typed_out_weights_[r]};
  }

  /// Number of links of each relation across the whole network.
  const std::vector<size_t>& LinkCountsByType() const {
    return link_counts_by_type_;
  }

  /// Sum of link weights of each relation.
  const std::vector<double>& LinkWeightsByType() const {
    return link_weights_by_type_;
  }

  /// Weight of the src -> dst link of relation `type`; 0 when absent.
  double LinkWeight(NodeId src, NodeId dst, LinkTypeId type) const;

 private:
  friend class NetworkBuilder;
  friend Status GrowDataset(Dataset* dataset,
                            std::span<const NetworkDelta> deltas);

  // GrowDataset's commit step: appends the nodes and links of `deltas`,
  // already checked against `node_types` (the grown node set's types).
  // New out- and in-entries are merged into their sorted rows; every other
  // row only moves.
  void Append(std::vector<ObjectTypeId> node_types,
              std::span<const NetworkDelta> deltas);

  // Splits the sorted out-link rows into the per-relation CSR of OutCsr.
  // Needs link_counts_by_type_.
  void BuildTypedCsr();

  Schema schema_;
  std::vector<ObjectTypeId> node_types_;
  std::vector<std::string> node_names_;
  std::vector<std::vector<NodeId>> nodes_by_type_;

  std::vector<size_t> out_offsets_;  // size num_nodes + 1
  std::vector<LinkEntry> out_entries_;
  std::vector<size_t> in_offsets_;
  std::vector<LinkEntry> in_entries_;

  // Per-relation SoA out-adjacency (indexed by link type), mirroring
  // out_entries_ grouped by relation; see OutCsr.
  std::vector<std::vector<size_t>> typed_out_offsets_;
  std::vector<std::vector<NodeId>> typed_out_neighbors_;
  std::vector<std::vector<double>> typed_out_weights_;

  std::vector<size_t> link_counts_by_type_;
  std::vector<double> link_weights_by_type_;
};

}  // namespace genclus
