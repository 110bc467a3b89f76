#include "hin/network.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/string_util.h"
#include "hin/delta.h"

namespace genclus {

namespace {

// Canonical order of a node's out-links: by type then neighbor.
constexpr auto kByTypeThenNeighbor = [](const LinkEntry& a,
                                        const LinkEntry& b) {
  if (a.type != b.type) return a.type < b.type;
  return a.neighbor < b.neighbor;
};

// A new link bound for row `node` of one relation.
struct RowLink {
  NodeId node;
  NodeId neighbor;
  double weight;
};

// Grows one relation's CSR rows (`offsets`, `neighbors`, `weights`) to
// `num_nodes` rows and merges `added`, given in delta order, into them.
// Each row stays ascending by neighbor, an added link after any equal one
// already there and after the equal ones added before it. One backward
// pass places every link: rows without additions move as whole stretches,
// and offsets shift only from the first touched row onward.
void MergeIntoRows(std::vector<RowLink> added, size_t num_nodes,
                   std::vector<size_t>* offsets,
                   std::vector<NodeId>* neighbors,
                   std::vector<double>* weights) {
  std::vector<size_t>& off = *offsets;
  std::vector<NodeId>& nbr = *neighbors;
  std::vector<double>& wt = *weights;
  const size_t old_links = nbr.size();
  off.resize(num_nodes + 1, old_links);  // new rows start empty
  if (added.empty()) return;
  std::stable_sort(added.begin(), added.end(),
                   [](const RowLink& a, const RowLink& b) {
                     if (a.node != b.node) return a.node < b.node;
                     return a.neighbor < b.neighbor;
                   });
  nbr.resize(old_links + added.size());
  wt.resize(old_links + added.size());

  // Old links [0, end) are not yet in place; each belongs `a` slots
  // further on, `a` being the number of additions not yet placed.
  size_t a = added.size();
  size_t end = old_links;
  while (a > 0) {
    const NodeId v = added[a - 1].node;
    const size_t row_begin = off[v];
    const size_t row_end = off[v + 1];
    std::move_backward(nbr.begin() + row_end, nbr.begin() + end,
                       nbr.begin() + end + a);
    std::move_backward(wt.begin() + row_end, wt.begin() + end,
                       wt.begin() + end + a);
    size_t i = row_end;
    while (a > 0 && added[a - 1].node == v) {
      if (i > row_begin && added[a - 1].neighbor < nbr[i - 1]) {
        nbr[i - 1 + a] = nbr[i - 1];
        wt[i - 1 + a] = wt[i - 1];
        --i;
      } else {
        nbr[i - 1 + a] = added[a - 1].neighbor;
        wt[i - 1 + a] = added[a - 1].weight;
        --a;
      }
    }
    end = i;
  }

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

  // Counting-sort the links into transient out-rows, put each row in
  // (type, neighbor) order, then split the rows into the per-relation CSR.
  std::vector<size_t> offsets(n + 1, 0);
  for (size_t e = 0; e < m; ++e) offsets[link_srcs_[e] + 1]++;
  for (size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<LinkEntry> entries(m);
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t e = 0; e < m; ++e) {
    entries[cursor[link_srcs_[e]]++] = {link_dsts_[e], link_types_[e],
                                        link_weights_[e]};
  }
  // The builder is consumed: free its link lists before the CSR arrays
  // are allocated.
  link_srcs_ = std::vector<NodeId>();
  link_dsts_ = std::vector<NodeId>();
  link_types_ = std::vector<LinkTypeId>();
  link_weights_ = std::vector<double>();
  for (size_t v = 0; v < n; ++v) {
    std::sort(entries.begin() + offsets[v], entries.begin() + offsets[v + 1],
              kByTypeThenNeighbor);
  }

  const size_t num_relations = net.schema_.num_link_types();
  net.relations_.resize(num_relations);
  for (LinkTypeId r = 0; r < num_relations; ++r) {
    Network::RelationRows& rows = net.relations_[r];
    rows.offsets.resize(n + 1);
    rows.offsets[0] = 0;
    rows.neighbors.resize(net.link_counts_by_type_[r]);
    rows.weights.resize(net.link_counts_by_type_[r]);
  }
  std::vector<size_t> filled(num_relations, 0);
  for (size_t v = 0; v < n; ++v) {
    for (size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const LinkEntry& e = entries[i];
      Network::RelationRows& rows = net.relations_[e.type];
      rows.neighbors[filled[e.type]] = e.neighbor;
      rows.weights[filled[e.type]] = e.weight;
      ++filled[e.type];
    }
    for (LinkTypeId r = 0; r < num_relations; ++r) {
      net.relations_[r].offsets[v + 1] = filled[r];
    }
  }
  return net;
}

void Network::Append(std::vector<ObjectTypeId> node_types,
                     std::span<const NetworkDelta> deltas) {
  const size_t old_nodes = num_nodes();
  std::vector<std::vector<RowLink>> added(relations_.size());
  for (const NetworkDelta& delta : deltas) {
    for (const DeltaNode& node : delta.nodes) {
      node_names_.push_back(node.name);
    }
    for (const DeltaLink& link : delta.links) {
      added[link.type].push_back({link.src, link.dst, link.weight});
      link_counts_by_type_[link.type]++;
      link_weights_by_type_[link.type] += link.weight;
    }
  }

  node_types_ = std::move(node_types);
  const size_t n = node_types_.size();
  for (size_t v = old_nodes; v < n; ++v) {
    nodes_by_type_[node_types_[v]].push_back(static_cast<NodeId>(v));
  }
  for (size_t r = 0; r < relations_.size(); ++r) {
    RelationRows& rows = relations_[r];
    MergeIntoRows(std::move(added[r]), n, &rows.offsets, &rows.neighbors,
                  &rows.weights);
  }
}

const std::vector<NodeId>& Network::NodesOfType(ObjectTypeId t) const {
  GENCLUS_CHECK(schema_.ValidObjectType(t));
  return nodes_by_type_[t];
}

double Network::LinkWeight(NodeId src, NodeId dst, LinkTypeId type) const {
  GENCLUS_DCHECK(src < num_nodes() && type < relations_.size());
  const RelationRows& rows = relations_[type];
  const auto row_begin = rows.neighbors.begin() + rows.offsets[src];
  const auto row_end = rows.neighbors.begin() + rows.offsets[src + 1];
  const auto it = std::lower_bound(row_begin, row_end, dst);
  if (it == row_end || *it != dst) return 0.0;
  return rows.weights[it - rows.neighbors.begin()];
}

}  // namespace genclus
