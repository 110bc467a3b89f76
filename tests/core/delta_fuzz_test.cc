// Hostile growth deltas: a deterministic mutation campaign over a valid
// batch of two NetworkDeltas (the second addresses nodes the first adds).
// Each mutant changes one field of the batch to a hostile value:
//   * link endpoints and observation nodes at, just past and far past the
//     node count grown so far, at kInvalidNode, and at valid nodes of
//     another object type;
//   * unknown link, object and attribute ids, and every valid one (which
//     contradicts the schema's endpoint types or the attribute's kind);
//   * weights and counts 0, -1, NaN, +-inf and a subnormal, counts of
//     DBL_MAX too; terms past the vocabulary; NaN, infinite and huge
//     values (1e160, whose square overflows, and +-DBL_MAX);
//   * node_labels of the wrong length.
// Every mutant goes through GrowDataset and through ApplyUpdates, each on
// a fresh copy of the base dataset and its fitted model. Both calls must
// return (no abort, no exception) and agree. A refused mutant leaves the
// dataset and the model exactly as they were; after an accepted one
// Dataset::Validate and Model::Validate hold and every OutCsr row ascends.
#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/engine.h"
#include "core/update.h"
#include "hin/delta.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

struct Mutant {
  std::string name;
  std::function<void(std::vector<NetworkDelta>*)> apply;
};

// Whether every row of every relation lists its neighbors in ascending
// order.
bool RowsAscend(const Network& net) {
  for (LinkTypeId r = 0; r < net.schema().num_link_types(); ++r) {
    const RelationCsr csr = net.OutCsr(r);
    for (size_t v = 0; v < net.num_nodes(); ++v) {
      for (size_t i = csr.row_offsets[v] + 1; i < csr.row_offsets[v + 1];
           ++i) {
        if (csr.neighbors[i - 1] > csr.neighbors[i]) return false;
      }
    }
  }
  return true;
}

class DeltaFuzzTest : public ::testing::Test {
 protected:
  // The base is the first 6 of the 10 nodes of a two-community network
  // that carries a categorical and a numerical attribute; the other 4
  // arrive as two deltas. The model is fitted on the base once.
  static void SetUpTestSuite() {
    testing::TwoCommunityNetwork full =
        testing::MakeTwoCommunityNetwork(4, 1.0, 71);
    const size_t n = full.dataset.network.num_nodes();
    Attribute x = Attribute::Numerical("x", n);
    for (size_t i = 0; i < full.docs.size(); ++i) {
      const double side = i < full.docs.size() / 2 ? 0.0 : 4.0;
      ASSERT_TRUE(x.AddValue(full.docs[i], side + 0.25 * (i % 3)).ok());
    }
    full.dataset.attributes.push_back(std::move(x));

    NetworkDelta second;
    auto mid = SliceDatasetPrefix(full.dataset, 8, &second);
    ASSERT_TRUE(mid.ok()) << mid.status().ToString();
    NetworkDelta first;
    auto base = SliceDatasetPrefix(*mid, 6, &first);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    base_ = new Dataset(std::move(base).value());
    batch_ = new std::vector<NetworkDelta>{std::move(first),
                                           std::move(second)};
    ASSERT_FALSE((*batch_)[0].observations.empty());
    ASSERT_FALSE((*batch_)[1].links.empty());

    FitOptions options;
    options.attributes = {"text", "x"};
    options.config = testing::PlantedFixtureConfig(72);
    auto fit = Engine::Fit(*base_, options);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    model_ = new Model(std::move(fit).value().model);
  }

  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete batch_;
    batch_ = nullptr;
    delete base_;
    base_ = nullptr;
  }

  // One mutant per hostile value of every field of the batch.
  static std::vector<Mutant> Mutants() {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const double subnormal = std::numeric_limits<double>::denorm_min();
    const std::vector<double> bad_numbers = {0.0, -1.0, nan, inf, -inf,
                                             subnormal};
    const Network& net = base_->network;
    const Schema& schema = net.schema();
    std::vector<Mutant> out;
    auto add = [&](std::string name,
                   std::function<void(std::vector<NetworkDelta>*)> apply) {
      out.push_back({std::move(name), std::move(apply)});
    };

    // The object types of the node set as grown by each delta.
    std::vector<ObjectTypeId> types;
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      types.push_back(net.node_type(v));
    }
    for (size_t d = 0; d < batch_->size(); ++d) {
      const NetworkDelta& delta = (*batch_)[d];
      for (const DeltaNode& node : delta.nodes) types.push_back(node.type);
      const NodeId grown = static_cast<NodeId>(types.size());
      // Ids at, past and far past the grown count, the sentinel, and the
      // first and last valid node of each object type.
      std::vector<NodeId> ids = {grown, grown + 1, grown + 1000,
                                 kInvalidNode};
      for (ObjectTypeId t = 0; t < schema.num_object_types(); ++t) {
        for (NodeId v = 0; v < grown; ++v) {
          if (types[v] == t) {
            ids.push_back(v);
            break;
          }
        }
        for (NodeId v = grown; v-- > 0;) {
          if (types[v] == t) {
            ids.push_back(v);
            break;
          }
        }
      }
      std::vector<LinkTypeId> link_types = {
          static_cast<LinkTypeId>(schema.num_link_types()), kInvalidLinkType};
      for (LinkTypeId r = 0; r < schema.num_link_types(); ++r) {
        link_types.push_back(r);
      }
      std::vector<ObjectTypeId> object_types = {
          static_cast<ObjectTypeId>(schema.num_object_types()),
          kInvalidObjectType};
      for (ObjectTypeId t = 0; t < schema.num_object_types(); ++t) {
        object_types.push_back(t);
      }
      std::vector<AttributeId> attributes = {
          static_cast<AttributeId>(base_->attributes.size()),
          kInvalidAttribute};
      for (size_t a = 0; a < base_->attributes.size(); ++a) {
        attributes.push_back(static_cast<AttributeId>(a));
      }

      for (size_t i = 0; i < delta.nodes.size(); ++i) {
        for (ObjectTypeId t : object_types) {
          add(StrFormat("delta %zu node %zu type %u", d, i, t),
              [=](std::vector<NetworkDelta>* b) {
                (*b)[d].nodes[i].type = t;
              });
        }
      }
      for (size_t i = 0; i < delta.links.size(); ++i) {
        for (NodeId id : ids) {
          add(StrFormat("delta %zu link %zu src %u", d, i, id),
              [=](std::vector<NetworkDelta>* b) {
                (*b)[d].links[i].src = id;
              });
          add(StrFormat("delta %zu link %zu dst %u", d, i, id),
              [=](std::vector<NetworkDelta>* b) {
                (*b)[d].links[i].dst = id;
              });
        }
        for (LinkTypeId r : link_types) {
          add(StrFormat("delta %zu link %zu type %u", d, i, r),
              [=](std::vector<NetworkDelta>* b) {
                (*b)[d].links[i].type = r;
              });
        }
        for (double w : bad_numbers) {
          add(StrFormat("delta %zu link %zu weight %g", d, i, w),
              [=](std::vector<NetworkDelta>* b) {
                (*b)[d].links[i].weight = w;
              });
        }
      }
      for (size_t i = 0; i < delta.observations.size(); ++i) {
        const AttributeId attr = delta.observations[i].attribute;
        for (NodeId id : ids) {
          add(StrFormat("delta %zu observation %zu node %u", d, i, id),
              [=](std::vector<NetworkDelta>* b) {
                (*b)[d].observations[i].node = id;
              });
        }
        for (AttributeId a : attributes) {
          add(StrFormat("delta %zu observation %zu attribute %u", d, i, a),
              [=](std::vector<NetworkDelta>* b) {
                (*b)[d].observations[i].attribute = a;
              });
        }
        if (base_->attributes[attr].kind() == AttributeKind::kCategorical) {
          const uint32_t vocab =
              static_cast<uint32_t>(base_->attributes[attr].vocab_size());
          for (uint32_t term :
               {vocab, vocab + 1, std::numeric_limits<uint32_t>::max()}) {
            add(StrFormat("delta %zu observation %zu term %u", d, i, term),
                [=](std::vector<NetworkDelta>* b) {
                  (*b)[d].observations[i].term = term;
                });
          }
          std::vector<double> counts = bad_numbers;
          counts.push_back(std::numeric_limits<double>::max());
          for (double count : counts) {
            add(StrFormat("delta %zu observation %zu count %g", d, i, count),
                [=](std::vector<NetworkDelta>* b) {
                  (*b)[d].observations[i].count = count;
                });
          }
        } else {
          const double max = std::numeric_limits<double>::max();
          for (double value : {nan, inf, -inf, 1e160, max, -max}) {
            add(StrFormat("delta %zu observation %zu value %g", d, i, value),
                [=](std::vector<NetworkDelta>* b) {
                  (*b)[d].observations[i].value = value;
                });
          }
        }
      }
      // Empty labels are allowed; any other length but the node count
      // is not.
      const size_t nodes = delta.nodes.size();
      std::vector<size_t> label_counts = {nodes + 1, nodes + 5};
      if (nodes > 1) label_counts.push_back(nodes - 1);
      for (size_t count : label_counts) {
        add(StrFormat("delta %zu %zu node labels", d, count),
            [=](std::vector<NetworkDelta>* b) {
              (*b)[d].node_labels.assign(count, 0);
            });
      }
    }
    return out;
  }

  static Dataset* base_;
  static std::vector<NetworkDelta>* batch_;
  static Model* model_;
};

Dataset* DeltaFuzzTest::base_ = nullptr;
std::vector<NetworkDelta>* DeltaFuzzTest::batch_ = nullptr;
Model* DeltaFuzzTest::model_ = nullptr;

TEST_F(DeltaFuzzTest, ValidBatchGrowsBoth) {
  Dataset dataset = *base_;
  Model model = *model_;
  auto report = ApplyUpdates(&dataset, &model, *batch_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(dataset.network.num_nodes(), 10u);
  EXPECT_TRUE(model.Validate().ok());
}

TEST_F(DeltaFuzzTest, HostileFieldsAreRefusedOrGrowCleanly) {
  const uint64_t fingerprint = model_->Fingerprint();
  size_t refused = 0;
  size_t accepted = 0;
  for (const Mutant& mutant : Mutants()) {
    SCOPED_TRACE(mutant.name);
    std::vector<NetworkDelta> batch = *batch_;
    mutant.apply(&batch);
    try {
      Dataset grown = *base_;
      const Status status = GrowDataset(&grown, batch);
      if (status.ok()) {
        EXPECT_TRUE(grown.Validate().ok());
        EXPECT_TRUE(RowsAscend(grown.network));
      } else {
        EXPECT_FALSE(status.message().empty());
        testing::ExpectDatasetsEqual(*base_, grown);
      }

      Dataset dataset = *base_;
      Model model = *model_;
      auto report = ApplyUpdates(&dataset, &model, batch);
      EXPECT_EQ(report.ok(), status.ok()) << report.status().ToString();
      if (report.ok()) {
        ++accepted;
        EXPECT_TRUE(dataset.Validate().ok());
        const Status valid = model.Validate();
        EXPECT_TRUE(valid.ok()) << valid.ToString();
        EXPECT_EQ(model.num_nodes(), dataset.network.num_nodes());
        EXPECT_TRUE(RowsAscend(dataset.network));
      } else {
        ++refused;
        testing::ExpectDatasetsEqual(*base_, dataset);
        EXPECT_EQ(model.Fingerprint(), fingerprint);
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw '" << e.what() << "'";
    }
  }
  // Both outcomes are reached: the campaign is not vacuous.
  EXPECT_GT(refused, 0u);
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace genclus
