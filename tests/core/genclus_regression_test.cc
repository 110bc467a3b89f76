// Deterministic regression pins for training on the planted two-community
// fixture: accuracy must stay at NMI >= 0.9 and a fixed seed must reproduce
// bit-identical hard labels run-to-run. These guard the tier-1 verify gate
// against silent quality or determinism regressions in the EM/strength
// loop. They run through Engine::Fit, the library's training entry point.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "eval/nmi.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::MakeTwoCommunityNetwork;

constexpr uint64_t kFixtureSeed = 91;
constexpr uint64_t kRunSeed = 2012;  // VLDB year, pinned forever

FitOptions PinnedOptions() {
  FitOptions options;
  options.attributes = {"text"};
  options.config = testing::PlantedFixtureConfig(kRunSeed);
  return options;
}

TEST(GenClusRegressionTest, PlantedTwoCommunityNmiAtLeastPointNine) {
  auto fixture = MakeTwoCommunityNetwork(8, 1.0, kFixtureSeed);
  auto fit = Engine::Fit(fixture.dataset, PinnedOptions());
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  const double nmi = NormalizedMutualInformation(
      fit->model.HardLabels(), fixture.dataset.labels.raw());
  EXPECT_GE(nmi, 0.9) << "accuracy regression: NMI dropped below the pin";
}

TEST(GenClusRegressionTest, SameSeedYieldsIdenticalHardLabels) {
  auto fixture = MakeTwoCommunityNetwork(8, 1.0, kFixtureSeed);
  auto first = Engine::Fit(fixture.dataset, PinnedOptions());
  auto second = Engine::Fit(fixture.dataset, PinnedOptions());
  ASSERT_TRUE(first.ok() && second.ok());
  const std::vector<uint32_t> a = first->model.HardLabels();
  const std::vector<uint32_t> b = second->model.HardLabels();
  ASSERT_EQ(a.size(), b.size());
  for (size_t v = 0; v < a.size(); ++v) {
    EXPECT_EQ(a[v], b[v]) << "node " << v << " flipped between runs";
  }
}

TEST(GenClusRegressionTest, ReproducibleUnderSparseText) {
  // Incomplete attributes (the paper's headline setting) must not break
  // determinism: 30% text coverage, same seed, identical labels.
  auto fixture = MakeTwoCommunityNetwork(10, 0.3, kFixtureSeed);
  auto first = Engine::Fit(fixture.dataset, PinnedOptions());
  auto second = Engine::Fit(fixture.dataset, PinnedOptions());
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->model.HardLabels(), second->model.HardLabels());
}

}  // namespace
}  // namespace genclus
