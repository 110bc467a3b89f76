// Streaming dataset growth (hin/delta.h):
//   * ApplyNetworkDelta appends nodes in order (base ids survive), wires
//     links between any mix of old and new nodes, and applies late
//     attribute observations by kind;
//   * SliceDatasetPrefix o ApplyNetworkDelta is the identity: slicing a
//     dataset into a prefix plus remainder and replaying the remainder
//     reproduces the full dataset exactly — the contract the
//     incremental-maintenance fixtures (update_test, delta_fuzz_test)
//     rely on;
//   * GrowDataset applies a batch in place, each delta addressing the
//     nodes the ones before it added, and matches a fresh Build in every
//     structure it maintains incrementally (rows, typed CSR, per-type
//     aggregates);
//   * GrowDataset merges exactly like appending every new link to its
//     source's row and stable-sorting the row by (type, neighbor): on
//     seeded random schemas and networks with hub rows and parallel
//     links, a link lands after any equal one already there and equal
//     additions keep delta order;
//   * malformed deltas fail with InvalidArgument and leave nothing
//     half-applied, and so does a term count that a repeated term sums
//     past kMaxObservationMagnitude, within a delta, across the batch or
//     onto the count a node already holds.
#include "hin/delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "datagen/dblp_generator.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::ExpectDatasetsEqual;
using testing::MakeTwoCommunityNetwork;

testing::TwoCommunityNetwork MakeFixture() {
  return MakeTwoCommunityNetwork(/*docs_per_side=*/4, /*text_fraction=*/1.0,
                                 /*seed=*/77);
}

TEST(DeltaTest, ApplyGrowsNetworkAndAttributes) {
  const auto fx = MakeFixture();
  const size_t base_nodes = fx.dataset.network.num_nodes();

  NetworkDelta delta;
  delta.nodes.push_back({fx.doc_type, "new_doc"});
  const NodeId fresh = static_cast<NodeId>(base_nodes);
  // Old -> new and new -> old links, plus a late observation on an OLD
  // node (the trickle-in attribute case).
  delta.links.push_back({fresh, fx.docs[0], fx.doc_doc, 2.0});
  delta.links.push_back({fx.docs[1], fresh, fx.doc_doc, 1.0});
  delta.observations.push_back({/*attribute=*/0, fresh, /*term=*/1,
                                /*count=*/3.0});
  delta.observations.push_back({/*attribute=*/0, fx.docs[2], /*term=*/0,
                                /*count=*/1.0});
  delta.node_labels = {0};

  auto grown = ApplyNetworkDelta(fx.dataset, delta);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  const Dataset& out = grown.value();
  EXPECT_EQ(out.network.num_nodes(), base_nodes + 1);
  EXPECT_EQ(out.network.num_links(), fx.dataset.network.num_links() + 2);
  EXPECT_EQ(out.network.node_type(fresh), fx.doc_type);
  EXPECT_EQ(out.network.node_name(fresh), "new_doc");
  ASSERT_EQ(out.network.OutLinks(fresh).size(), 1u);
  const LinkEntry link = *out.network.OutLinks(fresh).begin();
  EXPECT_EQ(link.neighbor, fx.docs[0]);
  EXPECT_EQ(link.weight, 2.0);
  // New node's bag holds the delta observation; the old node's bag gained
  // one count of term 0 on top of whatever the fixture planted.
  ASSERT_EQ(out.attributes[0].TermCounts(fresh).size(), 1u);
  EXPECT_EQ(out.attributes[0].TermCounts(fresh)[0].term, 1u);
  EXPECT_EQ(out.attributes[0].TermCounts(fresh)[0].count, 3.0);
  EXPECT_EQ(out.attributes[0].TotalObservations(),
            fx.dataset.attributes[0].TotalObservations() + 4.0);
  EXPECT_EQ(out.labels.Get(fresh), 0u);
  // Base ids survive untouched.
  EXPECT_EQ(out.network.node_name(fx.docs[0]),
            fx.dataset.network.node_name(fx.docs[0]));
  EXPECT_TRUE(out.Validate().ok());
}

TEST(DeltaTest, EmptyDeltaIsIdentity) {
  const auto fx = MakeFixture();
  auto same = ApplyNetworkDelta(fx.dataset, NetworkDelta{});
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  ExpectDatasetsEqual(fx.dataset, same.value());
}

TEST(DeltaTest, SliceThenApplyRoundTrips) {
  const auto fx = MakeFixture();
  const size_t total = fx.dataset.network.num_nodes();
  // Every split point, including the degenerate ones: empty prefix and
  // full prefix (empty remainder).
  for (size_t cut : {size_t{0}, size_t{1}, total / 2, total - 1, total}) {
    NetworkDelta remainder;
    auto prefix = SliceDatasetPrefix(fx.dataset, cut, &remainder);
    ASSERT_TRUE(prefix.ok()) << "cut=" << cut << ": "
                             << prefix.status().ToString();
    EXPECT_EQ(prefix.value().network.num_nodes(), cut);
    EXPECT_EQ(remainder.nodes.size(), total - cut);
    auto rebuilt = ApplyNetworkDelta(prefix.value(), remainder);
    ASSERT_TRUE(rebuilt.ok()) << "cut=" << cut << ": "
                              << rebuilt.status().ToString();
    ExpectDatasetsEqual(fx.dataset, rebuilt.value());
  }
}

// Cuts `full` at `base_nodes` and at `mid`, grows the base by the two
// deltas between the cuts as one GrowDataset batch — the second delta
// addresses nodes the first adds — and expects `full` back.
void ExpectTwoWaySplitRoundTrips(const Dataset& full, size_t base_nodes,
                                 size_t mid) {
  NetworkDelta second;
  auto mid_dataset = SliceDatasetPrefix(full, mid, &second);
  ASSERT_TRUE(mid_dataset.ok()) << mid_dataset.status().ToString();
  NetworkDelta first;
  auto base = SliceDatasetPrefix(mid_dataset.value(), base_nodes, &first);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  Dataset grown = std::move(base).value();
  const std::vector<NetworkDelta> batch = {std::move(first),
                                           std::move(second)};
  const Status status = GrowDataset(&grown, batch);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectDatasetsEqual(full, grown);
}

TEST(DeltaTest, GrowDatasetAppliesATwoWaySplitAsOneBatch) {
  const auto fx = MakeFixture();
  const size_t total = fx.dataset.network.num_nodes();
  ExpectTwoWaySplitRoundTrips(fx.dataset, total / 3, (2 * total) / 3);

  // Generated bibliographic networks: rows of hundreds of entries and
  // several relations get new entries merged in; AC carries
  // count-weighted links.
  DblpConfig config;
  config.num_conferences = 8;
  config.num_authors = 120;
  config.num_papers = 300;
  auto corpus = GenerateDblpCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  auto acp = BuildAcpNetwork(corpus.value(), config);
  ASSERT_TRUE(acp.ok()) << acp.status().ToString();
  const size_t acp_nodes = acp->dataset.network.num_nodes();
  ExpectTwoWaySplitRoundTrips(acp->dataset, acp_nodes / 2,
                              (3 * acp_nodes) / 4);
  auto ac = BuildAcNetwork(corpus.value(), config);
  ASSERT_TRUE(ac.ok()) << ac.status().ToString();
  const size_t ac_nodes = ac->dataset.network.num_nodes();
  ExpectTwoWaySplitRoundTrips(ac->dataset, ac_nodes / 3, (2 * ac_nodes) / 3);
}

// A seeded growth case: a base network over a random schema and a batch
// of 1-3 deltas. Relation 0 is a self-relation on object type 0 and node
// 0 has that type. Hub rows hold more than 16 links, some of them
// parallel (same neighbor and relation, distinct weights); the deltas add
// links out of node 0, out of the hubs (parallel ones included), between
// old and new nodes and among new nodes.
struct GrowthCase {
  Dataset base;
  std::vector<NetworkDelta> batch;
};

GrowthCase MakeGrowthCase(uint64_t seed) {
  Rng rng(seed);
  Schema schema;
  const size_t num_types = 2 + rng.UniformIndex(2);
  for (size_t t = 0; t < num_types; ++t) {
    (void)schema.AddObjectType(StrFormat("t%zu", t)).value();
  }
  const size_t num_relations = 3 + rng.UniformIndex(2);
  (void)schema.AddLinkType("self", 0, 0).value();
  for (size_t r = 1; r < num_relations; ++r) {
    (void)schema
        .AddLinkType(StrFormat("r%zu", r),
                     static_cast<ObjectTypeId>(rng.UniformIndex(num_types)),
                     static_cast<ObjectTypeId>(rng.UniformIndex(num_types)))
        .value();
  }

  // Object types of the grown node set; every type occurs among the
  // first nodes.
  std::vector<ObjectTypeId> types;
  const size_t base_nodes = 30 + rng.UniformIndex(30);
  for (size_t v = 0; v < base_nodes; ++v) {
    types.push_back(static_cast<ObjectTypeId>(
        v < num_types ? v : rng.UniformIndex(num_types)));
  }
  double next_weight = 0.5;  // every link gets a weight of its own
  // A random link out of `src` to a node in [lo, hi); false when no
  // relation leads there from src's type.
  auto random_link = [&](NodeId src, size_t lo, size_t hi, DeltaLink* link) {
    std::vector<DeltaLink> candidates;
    for (LinkTypeId r = 0; r < num_relations; ++r) {
      const LinkTypeInfo& info = schema.link_type(r);
      if (info.source_type != types[src]) continue;
      for (size_t u = lo; u < hi; ++u) {
        if (types[u] == info.target_type) {
          candidates.push_back({src, static_cast<NodeId>(u), r, 0.0});
        }
      }
    }
    if (candidates.empty()) return false;
    *link = candidates[rng.UniformIndex(candidates.size())];
    link->weight = next_weight;
    next_weight += 0.25;
    return true;
  };
  // Appends up to `count` links out of `src` into [lo, hi) to `links`,
  // every third one a parallel copy of the one before.
  auto add_links = [&](NodeId src, size_t count, size_t lo, size_t hi,
                       std::vector<DeltaLink>* links) {
    for (size_t i = 0; i < count; ++i) {
      DeltaLink link;
      if (i % 3 == 2 && !links->empty() && links->back().src == src) {
        link = links->back();
        link.weight = next_weight;
        next_weight += 0.25;
      } else if (!random_link(src, lo, hi, &link)) {
        return;
      }
      links->push_back(link);
    }
  };

  std::vector<DeltaLink> base_links;
  const std::vector<NodeId> hubs = {0, 1,
                                    static_cast<NodeId>(base_nodes - 1)};
  for (NodeId hub : hubs) {
    add_links(hub, 20 + rng.UniformIndex(10), 0, base_nodes, &base_links);
  }
  for (NodeId v = 0; v < base_nodes; ++v) {
    add_links(v, rng.UniformIndex(4), 0, base_nodes, &base_links);
  }
  // Build in a shuffled order, so that parallel links reach the row sort
  // in no particular order.
  std::vector<size_t> order(base_links.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);
  NetworkBuilder builder(schema);
  for (size_t v = 0; v < base_nodes; ++v) {
    (void)builder.AddNode(types[v]).value();
  }
  for (size_t i : order) {
    const DeltaLink& l = base_links[i];
    EXPECT_TRUE(builder.AddLink(l.src, l.dst, l.type, l.weight).ok());
  }
  GrowthCase out;
  out.base.network = std::move(builder).Build().value();

  const size_t num_deltas = 1 + rng.UniformIndex(3);
  for (size_t d = 0; d < num_deltas; ++d) {
    NetworkDelta delta;
    const size_t first_new = types.size();
    const size_t new_nodes = 1 + rng.UniformIndex(4);
    for (size_t i = 0; i < new_nodes; ++i) {
      const ObjectTypeId type =
          i == 0 ? 0 : static_cast<ObjectTypeId>(rng.UniformIndex(num_types));
      delta.nodes.push_back({type, ""});
      types.push_back(type);
    }
    const size_t grown = types.size();
    for (NodeId hub : hubs) {
      add_links(hub, 3 + rng.UniformIndex(4), 0, grown, &delta.links);
    }
    for (size_t v = first_new; v < grown; ++v) {
      const NodeId fresh = static_cast<NodeId>(v);
      add_links(fresh, 2 + rng.UniformIndex(3), 0, grown, &delta.links);
      add_links(fresh, 2, first_new, grown, &delta.links);  // among new
      for (int tries = 0; tries < 3; ++tries) {  // into the new node
        const NodeId old = static_cast<NodeId>(rng.UniformIndex(first_new));
        DeltaLink link;
        if (random_link(old, v, v + 1, &link)) delta.links.push_back(link);
      }
    }
    out.batch.push_back(std::move(delta));
  }
  return out;
}

bool ByTypeThenNeighbor(const LinkEntry& a, const LinkEntry& b) {
  if (a.type != b.type) return a.type < b.type;
  return a.neighbor < b.neighbor;
}

TEST(DeltaTest, GrowDatasetMatchesTheStableSortOracle) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    const GrowthCase c = MakeGrowthCase(seed);
    const Network& base = c.base.network;
    const Schema& schema = base.schema();

    // The oracle: each row as it was, its added links appended in delta
    // order, then stable-sorted by (type, neighbor).
    std::vector<std::vector<LinkEntry>> rows(base.num_nodes());
    for (NodeId v = 0; v < base.num_nodes(); ++v) {
      for (const LinkEntry& e : base.OutLinks(v)) rows[v].push_back(e);
    }
    std::vector<std::vector<NodeId>> nodes_by_type(schema.num_object_types());
    for (ObjectTypeId t = 0; t < schema.num_object_types(); ++t) {
      nodes_by_type[t] = base.NodesOfType(t);
    }
    std::vector<size_t> counts = base.LinkCountsByType();
    std::vector<double> weights = base.LinkWeightsByType();
    bool parallel_hub_row = false;
    for (const NetworkDelta& delta : c.batch) {
      for (const DeltaNode& node : delta.nodes) {
        nodes_by_type[node.type].push_back(static_cast<NodeId>(rows.size()));
        rows.emplace_back();
      }
      for (const DeltaLink& link : delta.links) {
        rows[link.src].push_back({link.dst, link.type, link.weight});
        counts[link.type]++;
        weights[link.type] += link.weight;
      }
    }
    for (std::vector<LinkEntry>& row : rows) {
      std::stable_sort(row.begin(), row.end(), ByTypeThenNeighbor);
      for (size_t i = 1; i < row.size() && row.size() > 16; ++i) {
        if (row[i].type == row[i - 1].type &&
            row[i].neighbor == row[i - 1].neighbor) {
          parallel_hub_row = true;
        }
      }
    }
    EXPECT_TRUE(parallel_hub_row);

    Dataset grown = c.base;
    const Status status = GrowDataset(&grown, c.batch);
    ASSERT_TRUE(status.ok()) << status.ToString();
    const Network& net = grown.network;
    ASSERT_EQ(net.num_nodes(), rows.size());
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      std::vector<LinkEntry> got;
      for (const LinkEntry& e : net.OutLinks(v)) got.push_back(e);
      ASSERT_EQ(got.size(), rows[v].size()) << "v=" << v;
      EXPECT_EQ(net.OutLinks(v).size(), rows[v].size()) << "v=" << v;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].neighbor, rows[v][i].neighbor) << "v=" << v;
        EXPECT_EQ(got[i].type, rows[v][i].type) << "v=" << v;
        EXPECT_EQ(got[i].weight, rows[v][i].weight) << "v=" << v;
      }
    }
    for (LinkTypeId r = 0; r < schema.num_link_types(); ++r) {
      std::vector<size_t> offsets = {0};
      std::vector<NodeId> neighbors;
      std::vector<double> link_weights;
      for (const std::vector<LinkEntry>& row : rows) {
        for (const LinkEntry& e : row) {
          if (e.type != r) continue;
          neighbors.push_back(e.neighbor);
          link_weights.push_back(e.weight);
        }
        offsets.push_back(neighbors.size());
      }
      const RelationCsr csr = net.OutCsr(r);
      EXPECT_EQ(std::vector<size_t>(csr.row_offsets.begin(),
                                    csr.row_offsets.end()),
                offsets)
          << "r=" << r;
      EXPECT_EQ(std::vector<NodeId>(csr.neighbors.begin(),
                                    csr.neighbors.end()),
                neighbors)
          << "r=" << r;
      EXPECT_EQ(std::vector<double>(csr.weights.begin(), csr.weights.end()),
                link_weights)
          << "r=" << r;
    }
    EXPECT_EQ(net.LinkCountsByType(), counts);
    EXPECT_EQ(net.LinkWeightsByType(), weights);
    for (ObjectTypeId t = 0; t < schema.num_object_types(); ++t) {
      EXPECT_EQ(net.NodesOfType(t), nodes_by_type[t]) << "t=" << t;
    }
  }
}

TEST(DeltaTest, GrowDatasetIsAllOrNothing) {
  // A valid delta, then one whose link addresses past the grown node
  // count: the batch fails and the dataset is exactly as it was.
  const auto fx = MakeFixture();
  Dataset dataset = fx.dataset;
  NetworkDelta valid;
  valid.nodes.push_back({fx.doc_type, "new_doc"});
  const NodeId fresh = static_cast<NodeId>(dataset.network.num_nodes());
  valid.links.push_back({fresh, fx.docs[0], fx.doc_doc, 1.0});
  valid.observations.push_back({/*attribute=*/0, fx.docs[1], /*term=*/0,
                                /*count=*/1.0});
  NetworkDelta broken;
  broken.links.push_back({fx.docs[0], fresh + 1, fx.doc_doc, 1.0});
  const std::vector<NetworkDelta> batch = {valid, broken};
  EXPECT_EQ(GrowDataset(&dataset, batch).code(),
            StatusCode::kInvalidArgument);
  ExpectDatasetsEqual(fx.dataset, dataset);

  ASSERT_TRUE(GrowDataset(&dataset, {&valid, 1}).ok());
  EXPECT_EQ(dataset.network.num_nodes(), fx.dataset.network.num_nodes() + 1);
}

TEST(DeltaTest, GrowDatasetBoundsSummedTermCounts) {
  const auto fx = MakeFixture();
  const NodeId fresh = static_cast<NodeId>(fx.dataset.network.num_nodes());
  const DeltaObservation at_bound = {/*attribute=*/0, fresh, /*term=*/1,
                                     kMaxObservationMagnitude};
  NetworkDelta doubled;
  doubled.nodes.push_back({fx.doc_type, "new_doc"});
  doubled.observations = {at_bound, at_bound};
  NetworkDelta one = doubled;
  one.observations.pop_back();
  NetworkDelta again;
  again.observations = {at_bound};

  const std::vector<std::pair<const char*, std::vector<NetworkDelta>>>
      refused = {{"twice in one delta", {doubled}},
                 {"once in each delta of a batch", {one, again}}};
  for (const auto& [name, batch] : refused) {
    SCOPED_TRACE(name);
    Dataset dataset = fx.dataset;
    const Status status = GrowDataset(&dataset, batch);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(),
              StrFormat("attribute 'text': node %u's count of term 1 would "
                        "total 2e+100, above 1e+100",
                        fresh));
    ExpectDatasetsEqual(fx.dataset, dataset);
  }

  // Onto the stored count: one record at the bound, or two records that
  // each fit alone, are refused; another term of the node is not.
  Dataset dataset = fx.dataset;
  ASSERT_TRUE(GrowDataset(&dataset, {&one, 1}).ok());
  NetworkDelta most;
  most.observations = {{0, fresh, 2, 0.8 * kMaxObservationMagnitude}};
  ASSERT_TRUE(GrowDataset(&dataset, {&most, 1}).ok());
  NetworkDelta two_small;
  two_small.observations.assign(
      2, {0, fresh, 2, 0.15 * kMaxObservationMagnitude});
  const Dataset grown = dataset;
  for (const NetworkDelta* delta : {&again, &two_small}) {
    EXPECT_EQ(GrowDataset(&dataset, {delta, 1}).code(),
              StatusCode::kInvalidArgument);
    ExpectDatasetsEqual(grown, dataset);
  }
  again.observations[0].term = 3;
  ASSERT_TRUE(GrowDataset(&dataset, {&again, 1}).ok());
  EXPECT_EQ(dataset.attributes[0].TermCounts(fresh).size(), 3u);
}

TEST(DeltaTest, RejectsMalformedDeltas) {
  const auto fx = MakeFixture();
  const NodeId out_of_range =
      static_cast<NodeId>(fx.dataset.network.num_nodes());

  NetworkDelta bad_link;
  bad_link.links.push_back({fx.docs[0], out_of_range, fx.doc_doc, 1.0});
  EXPECT_EQ(ApplyNetworkDelta(fx.dataset, bad_link).status().code(),
            StatusCode::kInvalidArgument);

  NetworkDelta bad_attr;
  bad_attr.observations.push_back(
      {static_cast<AttributeId>(fx.dataset.attributes.size()), fx.docs[0],
       0, 1.0});
  EXPECT_EQ(ApplyNetworkDelta(fx.dataset, bad_attr).status().code(),
            StatusCode::kInvalidArgument);

  NetworkDelta bad_labels;
  bad_labels.nodes.push_back({fx.doc_type, "n"});
  bad_labels.node_labels = {0, 1};  // two labels, one node
  EXPECT_EQ(ApplyNetworkDelta(fx.dataset, bad_labels).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(SliceDatasetPrefix(fx.dataset,
                               fx.dataset.network.num_nodes() + 1, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace genclus
