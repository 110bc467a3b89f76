#include "hin/network.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <ranges>
#include <vector>

namespace genclus {
namespace {

static_assert(std::forward_iterator<OutLinkView::Iterator>);
static_assert(std::ranges::forward_range<OutLinkView>);

// v's out-links, copied so they can be indexed.
std::vector<LinkEntry> OutLinkList(const Network& net, NodeId v) {
  std::vector<LinkEntry> links;
  for (const LinkEntry& e : net.OutLinks(v)) links.push_back(e);
  return links;
}

// Small bibliographic-flavoured fixture: 2 authors, 1 conference.
class NetworkFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema;
    author_ = schema.AddObjectType("author").value();
    conf_ = schema.AddObjectType("conf").value();
    ac_ = schema.AddLinkType("ac", author_, conf_).value();
    ca_ = schema.AddLinkType("ca", conf_, author_).value();
    aa_ = schema.AddLinkType("aa", author_, author_).value();

    NetworkBuilder builder(schema);
    a0_ = builder.AddNode(author_, "alice").value();
    a1_ = builder.AddNode(author_, "bob").value();
    c0_ = builder.AddNode(conf_, "vldb").value();
    EXPECT_TRUE(builder.AddLink(a0_, c0_, ac_, 2.0).ok());
    EXPECT_TRUE(builder.AddLink(a1_, c0_, ac_, 1.0).ok());
    EXPECT_TRUE(builder.AddLink(c0_, a0_, ca_, 2.0).ok());
    EXPECT_TRUE(builder.AddLink(a0_, a1_, aa_, 3.0).ok());
    net_ = std::move(builder).Build().value();
  }

  ObjectTypeId author_, conf_;
  LinkTypeId ac_, ca_, aa_;
  NodeId a0_, a1_, c0_;
  Network net_;
};

TEST_F(NetworkFixture, CountsAndTypes) {
  EXPECT_EQ(net_.num_nodes(), 3u);
  EXPECT_EQ(net_.num_links(), 4u);
  EXPECT_EQ(net_.node_type(a0_), author_);
  EXPECT_EQ(net_.node_type(c0_), conf_);
  EXPECT_EQ(net_.node_name(a1_), "bob");
  EXPECT_EQ(net_.OutDegree(a0_), 2u);
  EXPECT_EQ(net_.OutDegree(c0_), 1u);
}

TEST_F(NetworkFixture, NodesOfType) {
  const auto& authors = net_.NodesOfType(author_);
  ASSERT_EQ(authors.size(), 2u);
  EXPECT_EQ(authors[0], a0_);
  EXPECT_EQ(authors[1], a1_);
  EXPECT_EQ(net_.NodesOfType(conf_).size(), 1u);
}

TEST_F(NetworkFixture, OutLinksSortedByType) {
  EXPECT_EQ(net_.OutLinks(a0_).size(), 2u);
  EXPECT_FALSE(net_.OutLinks(a0_).empty());
  const std::vector<LinkEntry> links = OutLinkList(net_, a0_);
  ASSERT_EQ(links.size(), 2u);
  // ac_ was declared before aa_, so ac entries come first.
  EXPECT_EQ(links[0].type, ac_);
  EXPECT_EQ(links[0].neighbor, c0_);
  EXPECT_DOUBLE_EQ(links[0].weight, 2.0);
  EXPECT_EQ(links[1].type, aa_);
  EXPECT_EQ(links[1].neighbor, a1_);
}

TEST_F(NetworkFixture, LinkCountsByType) {
  const auto& counts = net_.LinkCountsByType();
  EXPECT_EQ(counts[ac_], 2u);
  EXPECT_EQ(counts[ca_], 1u);
  EXPECT_EQ(counts[aa_], 1u);
  const auto& weights = net_.LinkWeightsByType();
  EXPECT_DOUBLE_EQ(weights[ac_], 3.0);
  EXPECT_DOUBLE_EQ(weights[aa_], 3.0);
}

TEST_F(NetworkFixture, LinkWeightLookup) {
  EXPECT_DOUBLE_EQ(net_.LinkWeight(a0_, c0_, ac_), 2.0);
  EXPECT_DOUBLE_EQ(net_.LinkWeight(a1_, c0_, ac_), 1.0);
  EXPECT_DOUBLE_EQ(net_.LinkWeight(a0_, c0_, aa_), 0.0);  // wrong type
  EXPECT_DOUBLE_EQ(net_.LinkWeight(a1_, a0_, aa_), 0.0);  // wrong direction
}

TEST(NetworkBuilderTest, RejectsUnknownObjectType) {
  Schema schema;
  (void)schema.AddObjectType("A");
  NetworkBuilder builder(std::move(schema));
  EXPECT_FALSE(builder.AddNode(9).ok());
}

TEST(NetworkBuilderTest, RejectsLinkTypeEndpointMismatch) {
  Schema schema;
  auto a = schema.AddObjectType("A").value();
  auto b = schema.AddObjectType("B").value();
  auto ab = schema.AddLinkType("ab", a, b).value();
  NetworkBuilder builder(std::move(schema));
  NodeId n_a = builder.AddNode(a).value();
  NodeId n_b = builder.AddNode(b).value();
  // Reversed endpoints must be rejected.
  Status s = builder.AddLink(n_b, n_a, ab, 1.0);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(builder.AddLink(n_a, n_b, ab, 1.0).ok());
}

TEST(NetworkBuilderTest, RejectsBadWeightsAndIds) {
  Schema schema;
  auto a = schema.AddObjectType("A").value();
  auto aa = schema.AddLinkType("aa", a, a).value();
  NetworkBuilder builder(std::move(schema));
  NodeId v = builder.AddNode(a).value();
  NodeId u = builder.AddNode(a).value();
  EXPECT_FALSE(builder.AddLink(v, u, aa, 0.0).ok());
  EXPECT_FALSE(builder.AddLink(v, u, aa, -1.0).ok());
  EXPECT_FALSE(builder.AddLink(v, 77, aa, 1.0).ok());
  EXPECT_FALSE(builder.AddLink(v, u, 9, 1.0).ok());
}

TEST(NetworkBuilderTest, EmptyNetworkBuilds) {
  Schema schema;
  (void)schema.AddObjectType("A");
  NetworkBuilder builder(std::move(schema));
  auto net = std::move(builder).Build();
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->num_nodes(), 0u);
  EXPECT_EQ(net->num_links(), 0u);
}

TEST(NetworkBuilderTest, ParallelLinksAreKept) {
  // Two links of the same type between the same pair: both stored.
  Schema schema;
  auto a = schema.AddObjectType("A").value();
  auto aa = schema.AddLinkType("aa", a, a).value();
  NetworkBuilder builder(std::move(schema));
  NodeId v = builder.AddNode(a).value();
  NodeId u = builder.AddNode(a).value();
  EXPECT_TRUE(builder.AddLink(v, u, aa, 1.0).ok());
  EXPECT_TRUE(builder.AddLink(v, u, aa, 2.0).ok());
  Network net = std::move(builder).Build().value();
  EXPECT_EQ(net.OutDegree(v), 2u);
  double total = 0.0;
  for (const LinkEntry& e : net.OutLinks(v)) total += e.weight;
  EXPECT_DOUBLE_EQ(total, 3.0);
}

TEST(NetworkBuilderTest, SelfLoopAllowed) {
  Schema schema;
  auto a = schema.AddObjectType("A").value();
  auto aa = schema.AddLinkType("aa", a, a).value();
  NetworkBuilder builder(std::move(schema));
  NodeId v = builder.AddNode(a).value();
  EXPECT_TRUE(builder.AddLink(v, v, aa, 1.0).ok());
  Network net = std::move(builder).Build().value();
  EXPECT_EQ(net.OutDegree(v), 1u);
  EXPECT_EQ(net.LinkWeight(v, v, aa), 1.0);
}

TEST(NetworkBuilderTest, LargeCsrConsistency) {
  // Randomized CSR check: out-degrees must agree with the added links.
  Schema schema;
  auto a = schema.AddObjectType("A").value();
  auto r0 = schema.AddLinkType("r0", a, a).value();
  auto r1 = schema.AddLinkType("r1", a, a).value();
  NetworkBuilder builder(std::move(schema));
  const size_t n = 200;
  for (size_t i = 0; i < n; ++i) (void)builder.AddNode(a);
  std::map<NodeId, size_t> expected_out;
  size_t added = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 1; j <= 3; ++j) {
      NodeId dst = static_cast<NodeId>((i * 7 + j * 13) % n);
      LinkTypeId t = (i + j) % 2 == 0 ? r0 : r1;
      ASSERT_TRUE(builder
                      .AddLink(static_cast<NodeId>(i), dst, t,
                               1.0 + static_cast<double>(j))
                      .ok());
      expected_out[static_cast<NodeId>(i)]++;
      ++added;
    }
  }
  Network net = std::move(builder).Build().value();
  EXPECT_EQ(net.num_links(), added);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(net.OutDegree(v), expected_out[v]) << "node " << v;
    // Within each node, entries sorted by type.
    const std::vector<LinkEntry> links = OutLinkList(net, v);
    EXPECT_EQ(links.size(), expected_out[v]) << "node " << v;
    for (size_t i = 1; i < links.size(); ++i) {
      EXPECT_LE(links[i - 1].type, links[i].type);
    }
  }
}

TEST(NetworkBuilderTest, OutLinksGroupedByTypeRegardlessOfInsertionOrder) {
  // OutLinks runs through each relation's row in turn, so every link of a
  // relation is contiguous and types never decrease. Pin the order with
  // adversarial insertion order: types interleaved, neighbors descending.
  Schema schema;
  ObjectTypeId doc = schema.AddObjectType("doc").value();
  LinkTypeId r0 = schema.AddLinkType("r0", doc, doc).value();
  LinkTypeId r1 = schema.AddLinkType("r1", doc, doc).value();
  LinkTypeId r2 = schema.AddLinkType("r2", doc, doc).value();

  NetworkBuilder builder(schema);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) nodes.push_back(builder.AddNode(doc).value());
  const NodeId v = nodes[0];
  // Interleave relations and feed neighbors high-to-low.
  const std::vector<LinkTypeId> order = {r2, r0, r1, r0, r2, r1, r0};
  for (size_t i = 0; i < order.size(); ++i) {
    ASSERT_TRUE(builder.AddLink(v, nodes[5 - (i % 6)], order[i], 1.0).ok());
  }
  Network net = std::move(builder).Build().value();

  const std::vector<LinkEntry> links = OutLinkList(net, v);
  ASSERT_EQ(links.size(), 7u);
  std::map<LinkTypeId, size_t> counts;
  for (size_t i = 0; i < links.size(); ++i) {
    counts[links[i].type]++;
    if (i == 0) continue;
    // Sorted by (type, neighbor): type non-decreasing, neighbor ascending
    // within a type run — so every relation forms one contiguous group.
    EXPECT_LE(links[i - 1].type, links[i].type) << "position " << i;
    if (links[i - 1].type == links[i].type) {
      EXPECT_LE(links[i - 1].neighbor, links[i].neighbor)
          << "position " << i;
    }
  }
  EXPECT_EQ(counts[r0], 3u);
  EXPECT_EQ(counts[r1], 2u);
  EXPECT_EQ(counts[r2], 2u);
  // Contiguity directly: a type never reappears after its run ended.
  std::vector<LinkTypeId> seen;
  for (const LinkEntry& e : links) {
    if (seen.empty() || seen.back() != e.type) {
      for (LinkTypeId earlier : seen) EXPECT_NE(earlier, e.type);
      seen.push_back(e.type);
    }
  }
}

TEST(NetworkBuilderTest, OutCsrMatchesOutLinks) {
  // The per-relation SoA views must hold exactly the out-links of each
  // relation, row by row, neighbors ascending — the contract the EM SpMM
  // kernel consumes.
  Schema schema;
  ObjectTypeId doc = schema.AddObjectType("doc").value();
  LinkTypeId r0 = schema.AddLinkType("r0", doc, doc).value();
  LinkTypeId r1 = schema.AddLinkType("r1", doc, doc).value();

  NetworkBuilder builder(schema);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(builder.AddNode(doc).value());
  ASSERT_TRUE(builder.AddLink(nodes[0], nodes[3], r1, 2.0).ok());
  ASSERT_TRUE(builder.AddLink(nodes[0], nodes[1], r0, 0.5).ok());
  ASSERT_TRUE(builder.AddLink(nodes[0], nodes[4], r0, 1.5).ok());
  ASSERT_TRUE(builder.AddLink(nodes[2], nodes[0], r1, 3.0).ok());
  ASSERT_TRUE(builder.AddLink(nodes[4], nodes[2], r0, 4.0).ok());
  Network net = std::move(builder).Build().value();

  for (LinkTypeId r : {r0, r1}) {
    RelationCsr csr = net.OutCsr(r);
    ASSERT_EQ(csr.row_offsets.size(), net.num_nodes() + 1);
    ASSERT_EQ(csr.neighbors.size(), csr.weights.size());
    EXPECT_EQ(csr.nnz(), net.LinkCountsByType()[r]);
    size_t total = 0;
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      // Collect the reference grouping from OutLinks.
      std::vector<std::pair<NodeId, double>> want;
      for (const LinkEntry& e : net.OutLinks(v)) {
        if (e.type == r) want.emplace_back(e.neighbor, e.weight);
      }
      const size_t begin = csr.row_offsets[v];
      const size_t end = csr.row_offsets[v + 1];
      ASSERT_EQ(end - begin, want.size()) << "row " << v;
      for (size_t i = begin; i < end; ++i) {
        EXPECT_EQ(csr.neighbors[i], want[i - begin].first);
        EXPECT_EQ(csr.weights[i], want[i - begin].second);
        if (i > begin) {
          EXPECT_LE(csr.neighbors[i - 1], csr.neighbors[i]);  // ascending
        }
      }
      total += want.size();
    }
    EXPECT_EQ(total, csr.nnz());
  }
}

TEST(NetworkBuilderTest, OutCsrOfEmptyRelation) {
  Schema schema;
  ObjectTypeId doc = schema.AddObjectType("doc").value();
  LinkTypeId used = schema.AddLinkType("used", doc, doc).value();
  LinkTypeId unused = schema.AddLinkType("unused", doc, doc).value();
  NetworkBuilder builder(schema);
  NodeId a = builder.AddNode(doc).value();
  NodeId b = builder.AddNode(doc).value();
  ASSERT_TRUE(builder.AddLink(a, b, used, 1.0).ok());
  Network net = std::move(builder).Build().value();

  RelationCsr csr = net.OutCsr(unused);
  EXPECT_EQ(csr.nnz(), 0u);
  ASSERT_EQ(csr.row_offsets.size(), 3u);
  for (size_t offset : csr.row_offsets) EXPECT_EQ(offset, 0u);
}

}  // namespace
}  // namespace genclus
