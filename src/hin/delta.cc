#include "hin/delta.h"

#include <utility>

#include "common/string_util.h"

namespace genclus {

namespace {

// Rebuilds `attr` over `num_nodes` nodes, copying every observation of
// the first min(attr.num_nodes(), num_nodes) nodes.
Result<Attribute> ResizeAttribute(const Attribute& attr, size_t num_nodes) {
  const size_t copied = std::min(attr.num_nodes(), num_nodes);
  if (attr.kind() == AttributeKind::kCategorical) {
    Attribute out =
        Attribute::Categorical(attr.name(), attr.vocab_size(), num_nodes);
    if (!attr.term_names().empty()) {
      out.SetTermNames(attr.term_names());
    }
    for (NodeId v = 0; v < copied; ++v) {
      for (const TermCount& tc : attr.TermCounts(v)) {
        GENCLUS_RETURN_IF_ERROR(out.AddTermCount(v, tc.term, tc.count));
      }
    }
    return out;
  }
  Attribute out = Attribute::Numerical(attr.name(), num_nodes);
  for (NodeId v = 0; v < copied; ++v) {
    for (double x : attr.Values(v)) {
      GENCLUS_RETURN_IF_ERROR(out.AddValue(v, x));
    }
  }
  return out;
}

}  // namespace

Status GrowDataset(Dataset* dataset, std::span<const NetworkDelta> deltas) {
  GENCLUS_CHECK(dataset != nullptr);
  GENCLUS_RETURN_IF_ERROR(dataset->Validate());
  Network& net = dataset->network;
  std::vector<Attribute>& attributes = dataset->attributes;

  // Check the whole batch, each delta against the node set grown by the
  // ones before it, before changing anything. `node_types` is the grown
  // node set's types; it becomes the network's on commit.
  std::vector<ObjectTypeId> node_types = net.node_types_;
  for (const NetworkDelta& delta : deltas) {
    if (!delta.node_labels.empty() &&
        delta.node_labels.size() != delta.nodes.size()) {
      return Status::InvalidArgument(StrFormat(
          "delta carries %zu node labels for %zu new nodes",
          delta.node_labels.size(), delta.nodes.size()));
    }
    for (const DeltaNode& node : delta.nodes) {
      GENCLUS_RETURN_IF_ERROR(
          CheckNode(net.schema(), node.type, node_types.size()));
      node_types.push_back(node.type);
    }
    for (const DeltaLink& link : delta.links) {
      GENCLUS_RETURN_IF_ERROR(CheckLink(net.schema(), node_types, link.src,
                                        link.dst, link.type, link.weight));
    }
    for (const DeltaObservation& obs : delta.observations) {
      if (obs.attribute >= attributes.size()) {
        return Status::InvalidArgument(StrFormat(
            "delta observation references unknown attribute %u",
            obs.attribute));
      }
      const Attribute& attr = attributes[obs.attribute];
      GENCLUS_RETURN_IF_ERROR(
          attr.kind() == AttributeKind::kCategorical
              ? attr.CheckTermCount(obs.node, obs.term, obs.count,
                                    node_types.size())
              : attr.CheckValue(obs.node, obs.value, node_types.size()));
    }
  }
  if (deltas.empty()) return Status::OK();

  // Commit; every input has passed its check, so nothing below fails.
  const size_t base_nodes = net.num_nodes();
  const size_t total_nodes = node_types.size();
  net.Append(std::move(node_types), deltas);
  for (Attribute& attr : attributes) attr.Grow(total_nodes);
  dataset->labels.Grow(total_nodes);
  NodeId next = static_cast<NodeId>(base_nodes);
  for (const NetworkDelta& delta : deltas) {
    for (const DeltaObservation& obs : delta.observations) {
      Attribute& attr = attributes[obs.attribute];
      const Status added =
          attr.kind() == AttributeKind::kCategorical
              ? attr.AddTermCount(obs.node, obs.term, obs.count)
              : attr.AddValue(obs.node, obs.value);
      GENCLUS_CHECK(added.ok());
    }
    for (size_t i = 0; i < delta.node_labels.size(); ++i) {
      dataset->labels.Set(next + static_cast<NodeId>(i),
                          delta.node_labels[i]);
    }
    next += static_cast<NodeId>(delta.nodes.size());
  }
  return Status::OK();
}

Result<Dataset> ApplyNetworkDelta(const Dataset& base,
                                  const NetworkDelta& delta) {
  Dataset grown = base;
  GENCLUS_RETURN_IF_ERROR(GrowDataset(&grown, {&delta, 1}));
  return grown;
}

Result<Dataset> SliceDatasetPrefix(const Dataset& full, size_t num_nodes,
                                   NetworkDelta* remainder) {
  const Network& net = full.network;
  const size_t total = net.num_nodes();
  if (num_nodes > total) {
    return Status::InvalidArgument(StrFormat(
        "prefix of %zu nodes requested from a %zu-node dataset", num_nodes,
        total));
  }
  const bool has_labels = full.labels.size() == total;

  NetworkBuilder builder(net.schema());
  for (NodeId v = 0; v < num_nodes; ++v) {
    GENCLUS_ASSIGN_OR_RETURN(
        NodeId id, builder.AddNode(net.node_type(v), net.node_name(v)));
    (void)id;
  }
  if (remainder != nullptr) {
    *remainder = NetworkDelta();
    remainder->nodes.reserve(total - num_nodes);
    for (NodeId v = static_cast<NodeId>(num_nodes); v < total; ++v) {
      remainder->nodes.push_back({net.node_type(v), net.node_name(v)});
      if (has_labels) {
        remainder->node_labels.push_back(full.labels.Get(v));
      }
    }
  }
  for (NodeId v = 0; v < total; ++v) {
    for (const LinkEntry& e : net.OutLinks(v)) {
      if (v < num_nodes && e.neighbor < num_nodes) {
        GENCLUS_RETURN_IF_ERROR(
            builder.AddLink(v, e.neighbor, e.type, e.weight));
      } else if (remainder != nullptr) {
        remainder->links.push_back({v, e.neighbor, e.type, e.weight});
      }
    }
  }

  Dataset out;
  GENCLUS_ASSIGN_OR_RETURN(out.network, std::move(builder).Build());

  out.attributes.reserve(full.attributes.size());
  for (size_t t = 0; t < full.attributes.size(); ++t) {
    const Attribute& attr = full.attributes[t];
    GENCLUS_ASSIGN_OR_RETURN(Attribute sliced,
                             ResizeAttribute(attr, num_nodes));
    out.attributes.push_back(std::move(sliced));
    if (remainder == nullptr) continue;
    const AttributeId id = static_cast<AttributeId>(t);
    for (NodeId v = static_cast<NodeId>(num_nodes); v < total; ++v) {
      if (attr.kind() == AttributeKind::kCategorical) {
        for (const TermCount& tc : attr.TermCounts(v)) {
          DeltaObservation obs;
          obs.attribute = id;
          obs.node = v;
          obs.term = tc.term;
          obs.count = tc.count;
          remainder->observations.push_back(obs);
        }
      } else {
        for (double x : attr.Values(v)) {
          DeltaObservation obs;
          obs.attribute = id;
          obs.node = v;
          obs.value = x;
          remainder->observations.push_back(obs);
        }
      }
    }
  }

  out.labels = Labels(num_nodes);
  if (has_labels) {
    for (NodeId v = 0; v < num_nodes; ++v) {
      out.labels.Set(v, full.labels.Get(v));
    }
  }

  GENCLUS_RETURN_IF_ERROR(out.Validate());
  return out;
}

}  // namespace genclus
