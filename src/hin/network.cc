#include "hin/network.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/string_util.h"
#include "hin/delta.h"

namespace genclus {

namespace {

// Canonical ordering within each node's adjacency range: by type then
// neighbor.
constexpr auto kByTypeThenNeighbor = [](const LinkEntry& a,
                                        const LinkEntry& b) {
  if (a.type != b.type) return a.type < b.type;
  return a.neighbor < b.neighbor;
};

// An adjacency entry bound for the row of `node`.
struct RowEntry {
  NodeId node;
  LinkEntry entry;
};

// Grows the CSR rows (`offsets`, `entries`) to `num_nodes` rows and merges
// `added` into them. Each row stays in canonical order, an added entry
// after any equal one already there. One backward pass places every
// entry: rows without additions move as whole stretches and are never
// re-sorted.
void MergeIntoRows(std::vector<RowEntry> added, size_t num_nodes,
                   std::vector<size_t>* offsets,
                   std::vector<LinkEntry>* entries) {
  std::stable_sort(added.begin(), added.end(),
                   [](const RowEntry& a, const RowEntry& b) {
                     if (a.node != b.node) return a.node < b.node;
                     return kByTypeThenNeighbor(a.entry, b.entry);
                   });
  std::vector<size_t>& off = *offsets;
  std::vector<LinkEntry>& out = *entries;
  const size_t old_links = out.size();
  off.resize(num_nodes + 1, old_links);  // new rows start empty
  out.resize(old_links + added.size());

  // Old entries [0, end) are not yet in place; each belongs `a` slots
  // further on, `a` being the number of additions not yet placed.
  size_t a = added.size();
  size_t end = old_links;
  while (a > 0) {
    const NodeId v = added[a - 1].node;
    const size_t row_begin = off[v];
    const size_t row_end = off[v + 1];
    std::move_backward(out.begin() + row_end, out.begin() + end,
                       out.begin() + end + a);
    size_t i = row_end;
    while (a > 0 && added[a - 1].node == v) {
      if (i > row_begin &&
          kByTypeThenNeighbor(added[a - 1].entry, out[i - 1])) {
        out[i - 1 + a] = out[i - 1];
        --i;
      } else {
        out[i - 1 + a] = added[a - 1].entry;
        --a;
      }
    }
    end = i;
  }

  if (added.empty()) return;
  size_t before = 0;  // additions to rows below v
  for (size_t v = added.front().node + 1; v <= num_nodes; ++v) {
    while (before < added.size() && added[before].node < v) ++before;
    off[v] += before;
  }
}

}  // namespace

Status CheckNode(const Schema& schema, ObjectTypeId type, size_t num_nodes) {
  if (!schema.ValidObjectType(type)) {
    return Status::InvalidArgument(
        StrFormat("node of unknown object type %u", type));
  }
  if (num_nodes >= static_cast<size_t>(kInvalidNode)) {
    return Status::OutOfRange("node id space exhausted");
  }
  return Status::OK();
}

Status CheckLink(const Schema& schema,
                 std::span<const ObjectTypeId> node_types, NodeId src,
                 NodeId dst, LinkTypeId type, double weight) {
  if (src >= node_types.size() || dst >= node_types.size()) {
    return Status::InvalidArgument(
        StrFormat("link %u -> %u addresses a node past the node count %zu",
                  src, dst, node_types.size()));
  }
  if (!schema.ValidLinkType(type)) {
    return Status::InvalidArgument(
        StrFormat("link %u -> %u of unknown link type %u", src, dst, type));
  }
  if (!(weight > 0.0) || !std::isfinite(weight)) {
    return Status::InvalidArgument(StrFormat(
        "link %u -> %u: weight must be positive finite", src, dst));
  }
  const LinkTypeInfo& info = schema.link_type(type);
  if (node_types[src] != info.source_type ||
      node_types[dst] != info.target_type) {
    return Status::InvalidArgument(StrFormat(
        "link type '%s' expects (%s -> %s) but got (%s -> %s)",
        info.name.c_str(),
        schema.object_type_name(info.source_type).c_str(),
        schema.object_type_name(info.target_type).c_str(),
        schema.object_type_name(node_types[src]).c_str(),
        schema.object_type_name(node_types[dst]).c_str()));
  }
  return Status::OK();
}

Result<NodeId> NetworkBuilder::AddNode(ObjectTypeId type, std::string name) {
  GENCLUS_RETURN_IF_ERROR(CheckNode(schema_, type, node_types_.size()));
  node_types_.push_back(type);
  node_names_.push_back(std::move(name));
  return static_cast<NodeId>(node_types_.size() - 1);
}

Status NetworkBuilder::AddLink(NodeId src, NodeId dst, LinkTypeId type,
                               double weight) {
  GENCLUS_RETURN_IF_ERROR(
      CheckLink(schema_, node_types_, src, dst, type, weight));
  link_srcs_.push_back(src);
  link_dsts_.push_back(dst);
  link_types_.push_back(type);
  link_weights_.push_back(weight);
  return Status::OK();
}

Result<Network> NetworkBuilder::Build() && {
  Network net;
  const size_t n = node_types_.size();
  const size_t m = link_srcs_.size();

  // The typed-CSR views hand 32-bit neighbor ids to the SpMM kernels
  // (linalg's CsrMatrixView), with the all-ones id reserved as
  // kInvalidNode. AddNode already refuses to mint ids at the sentinel;
  // this guard keeps the contract explicit at the one place the CSR is
  // actually assembled (defense in depth for future builder entry
  // points, same rule as linalg's ValidateCsrColumnCount).
  if (n > static_cast<size_t>(kInvalidNode)) {
    return Status::InvalidArgument(StrFormat(
        "network has %zu nodes, exceeding the 32-bit CSR node-id space",
        n));
  }

  net.schema_ = std::move(schema_);
  net.node_types_ = std::move(node_types_);
  net.node_names_ = std::move(node_names_);

  net.nodes_by_type_.assign(net.schema_.num_object_types(), {});
  for (NodeId v = 0; v < n; ++v) {
    net.nodes_by_type_[net.node_types_[v]].push_back(v);
  }

  net.link_counts_by_type_.assign(net.schema_.num_link_types(), 0);
  net.link_weights_by_type_.assign(net.schema_.num_link_types(), 0.0);
  for (size_t e = 0; e < m; ++e) {
    net.link_counts_by_type_[link_types_[e]]++;
    net.link_weights_by_type_[link_types_[e]] += link_weights_[e];
  }

  // Counting-sort links into per-direction CSR.
  net.out_offsets_.assign(n + 1, 0);
  net.in_offsets_.assign(n + 1, 0);
  for (size_t e = 0; e < m; ++e) {
    net.out_offsets_[link_srcs_[e] + 1]++;
    net.in_offsets_[link_dsts_[e] + 1]++;
  }
  for (size_t v = 0; v < n; ++v) {
    net.out_offsets_[v + 1] += net.out_offsets_[v];
    net.in_offsets_[v + 1] += net.in_offsets_[v];
  }
  net.out_entries_.resize(m);
  net.in_entries_.resize(m);
  std::vector<size_t> out_cursor(net.out_offsets_.begin(),
                                 net.out_offsets_.end() - 1);
  std::vector<size_t> in_cursor(net.in_offsets_.begin(),
                                net.in_offsets_.end() - 1);
  for (size_t e = 0; e < m; ++e) {
    net.out_entries_[out_cursor[link_srcs_[e]]++] = {link_dsts_[e],
                                                     link_types_[e],
                                                     link_weights_[e]};
    net.in_entries_[in_cursor[link_dsts_[e]]++] = {link_srcs_[e],
                                                   link_types_[e],
                                                   link_weights_[e]};
  }
  // Canonical ordering within each node's range: by type then neighbor.
  for (size_t v = 0; v < n; ++v) {
    std::sort(net.out_entries_.begin() + net.out_offsets_[v],
              net.out_entries_.begin() + net.out_offsets_[v + 1],
              kByTypeThenNeighbor);
    std::sort(net.in_entries_.begin() + net.in_offsets_[v],
              net.in_entries_.begin() + net.in_offsets_[v + 1],
              kByTypeThenNeighbor);
  }
  net.BuildTypedCsr();
  return net;
}

void Network::Append(std::vector<ObjectTypeId> node_types,
                     std::span<const NetworkDelta> deltas) {
  const size_t old_nodes = num_nodes();
  std::vector<RowEntry> out_added;
  std::vector<RowEntry> in_added;
  for (const NetworkDelta& delta : deltas) {
    for (const DeltaNode& node : delta.nodes) {
      node_names_.push_back(node.name);
    }
    for (const DeltaLink& link : delta.links) {
      out_added.push_back({link.src, {link.dst, link.type, link.weight}});
      in_added.push_back({link.dst, {link.src, link.type, link.weight}});
      link_counts_by_type_[link.type]++;
      link_weights_by_type_[link.type] += link.weight;
    }
  }
  if (node_types.size() == old_nodes && out_added.empty()) return;

  node_types_ = std::move(node_types);
  const size_t n = node_types_.size();
  for (size_t v = old_nodes; v < n; ++v) {
    nodes_by_type_[node_types_[v]].push_back(static_cast<NodeId>(v));
  }
  MergeIntoRows(std::move(out_added), n, &out_offsets_, &out_entries_);
  MergeIntoRows(std::move(in_added), n, &in_offsets_, &in_entries_);
  BuildTypedCsr();
}

void Network::BuildTypedCsr() {
  const size_t n = num_nodes();
  const size_t num_relations = schema_.num_link_types();
  typed_out_offsets_.resize(num_relations);
  typed_out_neighbors_.resize(num_relations);
  typed_out_weights_.resize(num_relations);
  for (LinkTypeId r = 0; r < num_relations; ++r) {
    typed_out_offsets_[r].resize(n + 1);
    typed_out_offsets_[r][0] = 0;
    typed_out_neighbors_[r].resize(link_counts_by_type_[r]);
    typed_out_weights_[r].resize(link_counts_by_type_[r]);
  }
  std::vector<size_t> cursor(num_relations, 0);
  for (size_t v = 0; v < n; ++v) {
    for (size_t i = out_offsets_[v]; i < out_offsets_[v + 1]; ++i) {
      const LinkEntry& e = out_entries_[i];
      typed_out_neighbors_[e.type][cursor[e.type]] = e.neighbor;
      typed_out_weights_[e.type][cursor[e.type]] = e.weight;
      ++cursor[e.type];
    }
    for (LinkTypeId r = 0; r < num_relations; ++r) {
      typed_out_offsets_[r][v + 1] = cursor[r];
    }
  }
}

const std::vector<NodeId>& Network::NodesOfType(ObjectTypeId t) const {
  GENCLUS_CHECK(schema_.ValidObjectType(t));
  return nodes_by_type_[t];
}

double Network::LinkWeight(NodeId src, NodeId dst, LinkTypeId type) const {
  for (const LinkEntry& e : OutLinks(src)) {
    if (e.type == type && e.neighbor == dst) return e.weight;
  }
  return 0.0;
}

}  // namespace genclus
