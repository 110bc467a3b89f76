// Shared fixtures for the core-algorithm tests: tiny deterministic networks
// with planted cluster structure.
#pragma once

#include <vector>

#include "common/random.h"
#include "core/config.h"
#include "hin/dataset.h"
#include "linalg/matrix.h"

namespace genclus::testing {

/// Handles into a two-community test network.
struct TwoCommunityNetwork {
  Dataset dataset;
  ObjectTypeId doc_type;
  ObjectTypeId tag_type;
  LinkTypeId doc_doc;   // strong intra-community relation
  LinkTypeId doc_tag;   // doc -> tag
  LinkTypeId tag_doc;   // tag -> doc
  std::vector<NodeId> docs;  // docs_per_side * 2, first half community 0
  std::vector<NodeId> tags;  // one tag per community
};

/// Builds a network with two planted communities of `docs_per_side`
/// document nodes each. Documents link densely within their community
/// (doc_doc), every document links to its community's tag node (doc_tag,
/// tag_doc back). Documents carry a 4-term text attribute: community 0
/// uses terms {0,1}, community 1 uses terms {2,3}. `text_fraction` controls
/// incompleteness: only that fraction of documents receives text. Tags
/// never carry text.
TwoCommunityNetwork MakeTwoCommunityNetwork(size_t docs_per_side,
                                            double text_fraction,
                                            uint64_t seed);

/// The canonical small configuration for end-to-end runs on the planted
/// fixtures: K=2, 5 outer iterations, 60 EM iterations, 3 init seeds. The
/// genclus and regression tests share this so a GenClusConfig field change
/// only needs one update.
GenClusConfig PlantedFixtureConfig(uint64_t seed);

/// Expects two datasets structurally equal: node types and names, every
/// node's out-links (order included), every relation's OutCsr,
/// NodesOfType, LinkCountsByType, attribute observations and labels.
/// LinkWeightsByType is compared to double precision only: a grown
/// network sums each relation's weights in another order than a fresh
/// Build.
void ExpectDatasetsEqual(const Dataset& a, const Dataset& b);

/// A membership matrix where each node's row concentrates (1 - eps) on
/// `labels[v]`.
Matrix ConcentratedTheta(const std::vector<uint32_t>& labels,
                         size_t num_clusters, double eps);

}  // namespace genclus::testing
