#include "tests/core/test_fixtures.h"

#include <gtest/gtest.h>

#include <span>

#include "common/check.h"

namespace genclus::testing {

namespace {

template <typename T>
std::vector<T> ToVector(std::span<const T> values) {
  return std::vector<T>(values.begin(), values.end());
}

// Expects v's out-links in `a` and `b` equal, order included.
void ExpectOutLinksEqual(const Network& a, const Network& b, NodeId v) {
  ASSERT_EQ(a.OutLinks(v).size(), b.OutLinks(v).size()) << "v=" << v;
  auto ib = b.OutLinks(v).begin();
  for (const LinkEntry& ea : a.OutLinks(v)) {
    const LinkEntry eb = *ib++;
    EXPECT_EQ(ea.neighbor, eb.neighbor) << "v=" << v;
    EXPECT_EQ(ea.type, eb.type) << "v=" << v;
    EXPECT_EQ(ea.weight, eb.weight) << "v=" << v;
  }
}

}  // namespace

GenClusConfig PlantedFixtureConfig(uint64_t seed) {
  GenClusConfig config;
  config.num_clusters = 2;
  config.outer_iterations = 5;
  config.em_iterations = 60;
  config.seed = seed;
  config.num_init_seeds = 3;
  return config;
}

TwoCommunityNetwork MakeTwoCommunityNetwork(size_t docs_per_side,
                                            double text_fraction,
                                            uint64_t seed) {
  GENCLUS_CHECK_GE(docs_per_side, 2u);
  Rng rng(seed);
  TwoCommunityNetwork out;

  Schema schema;
  out.doc_type = schema.AddObjectType("doc").value();
  out.tag_type = schema.AddObjectType("tag").value();
  out.doc_doc = schema.AddLinkType("doc_doc", out.doc_type, out.doc_type)
                    .value();
  out.doc_tag = schema.AddLinkType("doc_tag", out.doc_type, out.tag_type)
                    .value();
  out.tag_doc = schema.AddLinkType("tag_doc", out.tag_type, out.doc_type)
                    .value();
  GENCLUS_CHECK(schema.SetInverse(out.doc_tag, out.tag_doc).ok());

  NetworkBuilder builder(schema);
  const size_t n_docs = docs_per_side * 2;
  for (size_t i = 0; i < n_docs; ++i) {
    out.docs.push_back(builder.AddNode(out.doc_type).value());
  }
  for (size_t c = 0; c < 2; ++c) {
    out.tags.push_back(builder.AddNode(out.tag_type).value());
  }

  // Ring + chord links within each community (sparse but connected).
  for (size_t side = 0; side < 2; ++side) {
    const size_t base = side * docs_per_side;
    for (size_t i = 0; i < docs_per_side; ++i) {
      const NodeId u = out.docs[base + i];
      const NodeId v = out.docs[base + (i + 1) % docs_per_side];
      GENCLUS_CHECK(builder.AddLink(u, v, out.doc_doc, 1.0).ok());
      GENCLUS_CHECK(builder.AddLink(v, u, out.doc_doc, 1.0).ok());
    }
    for (size_t i = 0; i < docs_per_side; ++i) {
      GENCLUS_CHECK(builder
                        .AddLink(out.docs[base + i], out.tags[side],
                                 out.doc_tag, 1.0)
                        .ok());
      GENCLUS_CHECK(builder
                        .AddLink(out.tags[side], out.docs[base + i],
                                 out.tag_doc, 1.0)
                        .ok());
    }
  }

  out.dataset.network = std::move(builder).Build().value();
  const size_t n = out.dataset.network.num_nodes();

  Attribute text = Attribute::Categorical("text", 4, n);
  for (size_t i = 0; i < n_docs; ++i) {
    if (rng.Uniform() >= text_fraction) continue;
    const size_t side = i < docs_per_side ? 0 : 1;
    // 3 term draws per document from the community's two terms.
    for (int d = 0; d < 3; ++d) {
      const uint32_t term =
          static_cast<uint32_t>(2 * side + rng.UniformIndex(2));
      GENCLUS_CHECK(text.AddTermCount(out.docs[i], term, 1.0).ok());
    }
  }
  out.dataset.attributes.push_back(std::move(text));

  out.dataset.labels = Labels(n);
  for (size_t i = 0; i < n_docs; ++i) {
    out.dataset.labels.Set(out.docs[i], i < docs_per_side ? 0 : 1);
  }
  for (size_t c = 0; c < 2; ++c) {
    out.dataset.labels.Set(out.tags[c], static_cast<uint32_t>(c));
  }
  GENCLUS_CHECK(out.dataset.Validate().ok());
  return out;
}

void ExpectDatasetsEqual(const Dataset& a, const Dataset& b) {
  const Network& na = a.network;
  const Network& nb = b.network;
  ASSERT_EQ(na.num_nodes(), nb.num_nodes());
  ASSERT_EQ(na.num_links(), nb.num_links());
  for (NodeId v = 0; v < na.num_nodes(); ++v) {
    EXPECT_EQ(na.node_type(v), nb.node_type(v)) << "v=" << v;
    EXPECT_EQ(na.node_name(v), nb.node_name(v)) << "v=" << v;
    ExpectOutLinksEqual(na, nb, v);
  }
  const size_t num_object_types = na.schema().num_object_types();
  ASSERT_EQ(num_object_types, nb.schema().num_object_types());
  for (ObjectTypeId t = 0; t < num_object_types; ++t) {
    EXPECT_EQ(na.NodesOfType(t), nb.NodesOfType(t)) << "t=" << t;
  }
  const size_t num_relations = na.schema().num_link_types();
  ASSERT_EQ(num_relations, nb.schema().num_link_types());
  EXPECT_EQ(na.LinkCountsByType(), nb.LinkCountsByType());
  ASSERT_EQ(na.LinkWeightsByType().size(), num_relations);
  ASSERT_EQ(nb.LinkWeightsByType().size(), num_relations);
  for (LinkTypeId r = 0; r < num_relations; ++r) {
    EXPECT_DOUBLE_EQ(na.LinkWeightsByType()[r], nb.LinkWeightsByType()[r])
        << "r=" << r;
    const RelationCsr ca = na.OutCsr(r);
    const RelationCsr cb = nb.OutCsr(r);
    EXPECT_EQ(ToVector(ca.row_offsets), ToVector(cb.row_offsets))
        << "r=" << r;
    EXPECT_EQ(ToVector(ca.neighbors), ToVector(cb.neighbors)) << "r=" << r;
    EXPECT_EQ(ToVector(ca.weights), ToVector(cb.weights)) << "r=" << r;
  }

  ASSERT_EQ(a.attributes.size(), b.attributes.size());
  for (size_t x = 0; x < a.attributes.size(); ++x) {
    const Attribute& xa = a.attributes[x];
    const Attribute& xb = b.attributes[x];
    ASSERT_EQ(xa.kind(), xb.kind());
    EXPECT_EQ(xa.name(), xb.name());
    for (NodeId v = 0; v < na.num_nodes(); ++v) {
      if (xa.kind() == AttributeKind::kCategorical) {
        const auto& ta = xa.TermCounts(v);
        const auto& tb = xb.TermCounts(v);
        ASSERT_EQ(ta.size(), tb.size()) << "x=" << x << " v=" << v;
        for (size_t i = 0; i < ta.size(); ++i) {
          EXPECT_EQ(ta[i].term, tb[i].term);
          EXPECT_EQ(ta[i].count, tb[i].count);
        }
      } else {
        EXPECT_EQ(xa.Values(v), xb.Values(v)) << "x=" << x << " v=" << v;
      }
    }
  }
  ASSERT_EQ(a.labels.size(), b.labels.size());
  for (NodeId v = 0; v < a.labels.size(); ++v) {
    EXPECT_EQ(a.labels.Get(v), b.labels.Get(v)) << "v=" << v;
  }
}

Matrix ConcentratedTheta(const std::vector<uint32_t>& labels,
                         size_t num_clusters, double eps) {
  Matrix theta(labels.size(), num_clusters,
               eps / static_cast<double>(num_clusters - 1));
  for (size_t v = 0; v < labels.size(); ++v) {
    GENCLUS_CHECK_LT(labels[v], num_clusters);
    theta(v, labels[v]) = 1.0 - eps;
  }
  return theta;
}

}  // namespace genclus::testing
