// Streaming dataset growth (hin/delta.h):
//   * ApplyNetworkDelta appends nodes in order (base ids survive), wires
//     links between any mix of old and new nodes, and applies late
//     attribute observations by kind;
//   * SliceDatasetPrefix o ApplyNetworkDelta is the identity: slicing a
//     dataset into a prefix plus remainder and replaying the remainder
//     reproduces the full dataset exactly — the contract the
//     incremental-maintenance fixtures (refit_bench, update_test) rely on;
//   * GrowDataset applies a batch in place, each delta addressing the
//     nodes the ones before it added, and matches a fresh Build in every
//     structure it maintains incrementally (rows, typed CSR, per-type
//     aggregates);
//   * malformed deltas fail with InvalidArgument and leave nothing
//     half-applied.
#include "hin/delta.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

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
  EXPECT_EQ(out.network.OutLinks(fresh)[0].neighbor, fx.docs[0]);
  EXPECT_EQ(out.network.OutLinks(fresh)[0].weight, 2.0);
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
