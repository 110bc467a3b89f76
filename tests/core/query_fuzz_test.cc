// Hostile fold-in queries: a deterministic mutation campaign over batches
// of NewObjectQuery on two fitted fixtures, the two-community network
// (categorical text) and a small weather network (two numerical
// attributes). A seeded Rng draws a batch of valid queries; each mutant
// changes one field of one query to a hostile value:
//   * link targets at and past the node count and at kInvalidNode,
//     unknown link types, and weights 0, -0, NaN, +-inf, a denormal and
//     DBL_MAX;
//   * observation attributes out of range, the wrong kind, terms at and
//     past the vocabulary, and counts and values NaN, +-inf, 1e100,
//     1.5e100, 1e160 and +-DBL_MAX;
// and the campaign adds empty queries and queries with a duplicated link
// or observation. For every mutant Engine::Plan and InferMembership return
// the same status, and no accepted mutant carries a count or value past
// kMaxObservationMagnitude, the bound a dataset's Attribute applies. Every
// accepted mutant's membership is bit for bit the same from
// Engine::Execute, InferMembership and one Server::SubmitBatch over all
// mutants.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/inference.h"
#include "core/server.h"
#include "datagen/weather_generator.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

struct Mutant {
  std::string name;
  NewObjectQuery query;
};

// `count` valid queries: 1-4 links to random nodes over random relations
// and 1-3 observations of random attributes, each of the attribute's kind.
std::vector<NewObjectQuery> DrawQueries(const Network& network,
                                        const Model& model, size_t count,
                                        uint64_t seed) {
  Rng rng(seed);
  const size_t num_link_types = network.schema().num_link_types();
  std::vector<NewObjectQuery> queries(count);
  for (NewObjectQuery& query : queries) {
    const size_t num_links = 1 + rng.UniformIndex(4);
    for (size_t j = 0; j < num_links; ++j) {
      query.links.push_back(
          {static_cast<NodeId>(rng.UniformIndex(network.num_nodes())),
           static_cast<LinkTypeId>(rng.UniformIndex(num_link_types)),
           rng.Uniform(0.5, 2.0)});
    }
    const size_t num_observations = 1 + rng.UniformIndex(3);
    for (size_t j = 0; j < num_observations; ++j) {
      const auto a =
          static_cast<AttributeId>(rng.UniformIndex(model.components.size()));
      const AttributeComponents& comp = model.components[a];
      if (comp.kind() == AttributeKind::kCategorical) {
        query.observations.push_back(NewObjectObservation::Categorical(
            a, static_cast<uint32_t>(rng.UniformIndex(comp.beta().cols())),
            1.0 + static_cast<double>(rng.UniformIndex(3))));
      } else {
        query.observations.push_back(
            NewObjectObservation::Numerical(a, rng.Gaussian(0.0, 3.0)));
      }
    }
  }
  return queries;
}

// One mutant per hostile value of every field of every query in `base`,
// plus empty queries and duplicated entries.
std::vector<Mutant> Mutants(const Network& network, const Model& model,
                            const std::vector<NewObjectQuery>& base) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double max = std::numeric_limits<double>::max();
  const double denormal = std::numeric_limits<double>::denorm_min();
  const auto num_nodes = static_cast<NodeId>(network.num_nodes());
  const auto num_link_types =
      static_cast<LinkTypeId>(network.schema().num_link_types());
  const auto num_attributes = static_cast<AttributeId>(model.components.size());

  std::vector<Mutant> out;
  auto add = [&](std::string name, size_t i,
                 const std::function<void(NewObjectQuery*)>& mutate) {
    NewObjectQuery query = base[i];
    mutate(&query);
    out.push_back({std::move(name), std::move(query)});
  };
  out.push_back({"empty query", NewObjectQuery{}});
  for (size_t i = 0; i < base.size(); ++i) {
    add(StrFormat("query %zu without links", i), i,
        [](NewObjectQuery* q) { q->links.clear(); });
    add(StrFormat("query %zu without observations", i), i,
        [](NewObjectQuery* q) { q->observations.clear(); });
    add(StrFormat("query %zu duplicated link", i), i, [](NewObjectQuery* q) {
      q->links.push_back(q->links.front());
    });
    add(StrFormat("query %zu duplicated observation", i), i,
        [](NewObjectQuery* q) {
          q->observations.push_back(q->observations.front());
        });
    for (size_t j = 0; j < base[i].links.size(); ++j) {
      for (NodeId target : {num_nodes, num_nodes + 1, kInvalidNode}) {
        add(StrFormat("query %zu link %zu target %u", i, j, target), i,
            [=](NewObjectQuery* q) { q->links[j].target = target; });
      }
      for (LinkTypeId type : {num_link_types, kInvalidLinkType}) {
        add(StrFormat("query %zu link %zu type %u", i, j, type), i,
            [=](NewObjectQuery* q) { q->links[j].type = type; });
      }
      for (double weight : {0.0, -0.0, nan, inf, -inf, denormal, max}) {
        add(StrFormat("query %zu link %zu weight %g", i, j, weight), i,
            [=](NewObjectQuery* q) { q->links[j].weight = weight; });
      }
    }
    for (size_t j = 0; j < base[i].observations.size(); ++j) {
      const NewObjectObservation& obs = base[i].observations[j];
      for (AttributeId a : {num_attributes, kInvalidAttribute}) {
        add(StrFormat("query %zu observation %zu attribute %u", i, j, a), i,
            [=](NewObjectQuery* q) { q->observations[j].attribute = a; });
      }
      const bool categorical = obs.kind == AttributeKind::kCategorical;
      add(StrFormat("query %zu observation %zu wrong kind", i, j), i,
          [=](NewObjectQuery* q) {
            q->observations[j].kind = categorical
                                          ? AttributeKind::kNumerical
                                          : AttributeKind::kCategorical;
          });
      if (categorical) {
        const auto vocab = static_cast<uint32_t>(
            model.components[obs.attribute].beta().cols());
        for (uint32_t term :
             {vocab, vocab + 1, std::numeric_limits<uint32_t>::max()}) {
          add(StrFormat("query %zu observation %zu term %u", i, j, term), i,
              [=](NewObjectQuery* q) { q->observations[j].term = term; });
        }
      }
      for (double x : {nan, inf, -inf, 1e100, -1e100, 1.5e100, 1e160,
                       -1e160, max, -max}) {
        if (categorical) {
          add(StrFormat("query %zu observation %zu count %g", i, j, x), i,
              [=](NewObjectQuery* q) { q->observations[j].count = x; });
        } else {
          add(StrFormat("query %zu observation %zu value %g", i, j, x), i,
              [=](NewObjectQuery* q) { q->observations[j].value = x; });
        }
      }
    }
  }
  return out;
}

bool BitwiseEqual(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (std::bit_cast<uint64_t>(a[k]) != std::bit_cast<uint64_t>(b[k])) {
      return false;
    }
  }
  return true;
}

// Runs every mutant of `base` through the three serving paths and checks
// that they agree.
void ExpectPathsAgree(const Network& network, const Model& model,
                      const std::vector<NewObjectQuery>& base) {
  const std::vector<Mutant> mutants = Mutants(network, model, base);
  std::vector<NewObjectQuery> queries;
  for (const Mutant& mutant : mutants) queries.push_back(mutant.query);

  EngineOptions engine_options;
  engine_options.num_threads = 2;
  auto engine = Engine::Create(&network, model, engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const InferPlan plan = engine->Plan(queries);
  const InferenceResult executed = engine->Execute(plan);

  ServerOptions server_options;
  server_options.queue_capacity = queries.size();
  auto server = Server::Create(&network, model, server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const InferenceResult served = (*server)->SubmitBatch(queries).get();
  ASSERT_EQ(served.size(), queries.size());

  size_t accepted = 0;
  size_t refused = 0;
  for (size_t i = 0; i < mutants.size(); ++i) {
    SCOPED_TRACE(mutants[i].name);
    const NewObjectQuery& query = queries[i];
    auto reference =
        InferMembership(network, model, query.links, query.observations);
    EXPECT_EQ(plan.statuses[i], reference.status());
    EXPECT_EQ(served.statuses[i], reference.status());
    if (!reference.ok()) {
      ++refused;
      EXPECT_EQ(reference.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ++accepted;
    for (const NewObjectObservation& obs : query.observations) {
      const double x = obs.kind == AttributeKind::kCategorical
                           ? obs.count
                           : std::abs(obs.value);
      EXPECT_LE(x, kMaxObservationMagnitude);
    }
    EXPECT_TRUE(BitwiseEqual(executed.membership(i), *reference));
    EXPECT_TRUE(BitwiseEqual(served.membership(i), *reference));
  }
  // Both outcomes are reached: the campaign is not vacuous.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(QueryFuzzTest, TwoCommunityMutantsAgreeAcrossPaths) {
  testing::TwoCommunityNetwork fixture =
      testing::MakeTwoCommunityNetwork(8, 1.0, 81);
  FitOptions options;
  options.attributes = {"text"};
  options.config = testing::PlantedFixtureConfig(82);
  auto fit = Engine::Fit(fixture.dataset, options);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  const Network& network = fixture.dataset.network;
  const Model& model = fit.value().model;
  ExpectPathsAgree(network, model, DrawQueries(network, model, 6, 83));
}

TEST(QueryFuzzTest, WeatherMutantsAgreeAcrossPaths) {
  WeatherConfig config;
  config.num_temperature_sensors = 60;
  config.num_precipitation_sensors = 30;
  config.observations_per_sensor = 3;
  config.seed = 84;
  auto data = GenerateWeatherNetwork(config);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  FitOptions options;
  options.attributes = {"temperature", "precipitation"};
  options.config.num_clusters = data->true_membership.cols();
  options.config.outer_iterations = 2;
  options.config.em_iterations = 15;
  options.config.seed = 85;
  auto fit = Engine::Fit(data->dataset, options);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  const Network& network = data->dataset.network;
  const Model& model = fit.value().model;
  ExpectPathsAgree(network, model, DrawQueries(network, model, 6, 86));
}

}  // namespace
}  // namespace genclus
