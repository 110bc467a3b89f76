// Streaming growth of a HIN dataset. A NetworkDelta describes what
// arrived since a base snapshot — new objects, new links (between any mix
// of old and new nodes) and new attribute observations — in the base's id
// space: the i-th new node of a delta gets id base.num_nodes() + i.
//
// GrowDataset is the one growth path: it appends a batch of deltas to a
// Dataset in place, checking the whole batch before it changes anything.
// Ids of surviving nodes never change, which is what lets Engine::Refit
// carry their Theta rows over. ApplyNetworkDelta is the copying form
// (copy, then grow), and SliceDatasetPrefix cuts one full dataset into a
// base-plus-remainder pair — the growth-fixture generator refit_bench and
// the incremental-maintenance tests are built on. The serving-side
// consumer is ApplyUpdates (core/update.h), which folds deltas into a
// fitted model between refits.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "hin/dataset.h"

namespace genclus {

/// A node that arrived after the base snapshot. Delta nodes are appended
/// in order, so the i-th one gets id base.num_nodes() + i.
struct DeltaNode {
  ObjectTypeId type = 0;
  std::string name;
};

/// A link that arrived after the base snapshot; endpoints address the
/// grown id space (base nodes keep their ids, delta nodes follow).
struct DeltaLink {
  NodeId src = 0;
  NodeId dst = 0;
  LinkTypeId type = 0;
  double weight = 1.0;
};

/// One late-arriving attribute observation. `attribute` indexes the base
/// dataset's attribute list; term/count apply to categorical attributes,
/// value to numerical ones. Observations may land on old nodes too — the
/// incomplete-attribute setting, where attributes trickle in after the
/// object itself.
struct DeltaObservation {
  AttributeId attribute = 0;
  NodeId node = 0;
  uint32_t term = 0;
  double count = 1.0;
  double value = 0.0;
};

/// One batch of growth relative to a base snapshot.
struct NetworkDelta {
  std::vector<DeltaNode> nodes;
  std::vector<DeltaLink> links;
  std::vector<DeltaObservation> observations;
  /// Ground-truth labels of the new nodes (evaluation only): either empty
  /// or parallel to `nodes`, kUnlabeled for unknown.
  std::vector<uint32_t> node_labels;

  bool empty() const {
    return nodes.empty() && links.empty() && observations.empty();
  }
};

/// Grows `dataset` in place by `deltas`, applied in order: each delta's
/// ids address the dataset as grown by the deltas before it. Existing
/// node ids carry over unchanged and delta nodes append in order. Each
/// observation is applied according to its attribute's kind (term/count
/// for categorical, value for numerical). Nodes and links must pass the
/// checks of NetworkBuilder (CheckNode/CheckLink) and observations those
/// of Attribute::AddTermCount/AddValue; the attribute must exist and a
/// non-empty node_labels must be parallel to the delta's nodes.
/// All-or-nothing: the whole batch is checked before anything changes, so
/// on error `dataset` is untouched. Growing reallocates the network's
/// arrays, so nothing may read `dataset->network` during the call, and
/// OutLinks and OutCsr views taken before it are invalid after it.
Status GrowDataset(Dataset* dataset, std::span<const NetworkDelta> deltas);

/// Returns `base` grown by `delta` (a copy, then GrowDataset); `base` is
/// untouched.
Result<Dataset> ApplyNetworkDelta(const Dataset& base,
                                  const NetworkDelta& delta);

/// Cuts `full` into its first `num_nodes` nodes — keeping exactly the
/// links and observations among them — and, when `remainder` is non-null,
/// the delta holding everything else, addressed so that
/// ApplyNetworkDelta(prefix, *remainder) reproduces `full` exactly.
/// Fails with InvalidArgument when num_nodes > full.network.num_nodes().
Result<Dataset> SliceDatasetPrefix(const Dataset& full, size_t num_nodes,
                                   NetworkDelta* remainder);

}  // namespace genclus
