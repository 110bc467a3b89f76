// Thread-invariance guarantee of training: Engine::Fit produces a
// bitwise-identical Model for any pool size. Both phases of the outer
// loop reduce over fixed-grain blocks merged in block order (EM sweep in
// core/em.cc, strength learning via ParallelForReduce), so the fitted
// Theta, beta, Gaussians and hard labels must not depend on
// GenClusConfig::num_threads — the property that makes models
// reproducible across machines.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::MakeTwoCommunityNetwork;

class FitInvarianceFixture : public ::testing::Test {
 protected:
  // 300 docs per side -> 602 nodes in five 128-node EM reduction blocks,
  // and each community spans three of them. A merge order that depends
  // on the thread count only changes bits when some cluster's sums have
  // non-zero partials in three or more blocks: two partials commute, so
  // at 80 or 150 docs per side (at most two such blocks per cluster) a
  // reversed block merge under a pool still passed both tests.
  static constexpr size_t kDocsPerSide = 300;

  void SetUp() override {
    fixture_ = MakeTwoCommunityNetwork(kDocsPerSide, 0.7, 811);
    // A numerical attribute rides along so the Gaussian update path is
    // covered too; half the docs per community carry values (incomplete).
    const size_t n = fixture_.dataset.network.num_nodes();
    Attribute temperature = Attribute::Numerical("temperature", n);
    Rng rng(812);
    for (size_t i = 0; i < kDocsPerSide; i += 2) {
      (void)temperature.AddValue(fixture_.docs[i], rng.Gaussian(1.0, 0.3));
      (void)temperature.AddValue(fixture_.docs[kDocsPerSide + i],
                                 rng.Gaussian(4.0, 0.3));
    }
    fixture_.dataset.attributes.push_back(std::move(temperature));
  }

  Result<FitResult> FitWith(size_t num_threads) {
    FitOptions options;
    options.attributes = {"text", "temperature"};
    options.config = testing::PlantedFixtureConfig(813);
    options.config.num_threads = num_threads;
    return Engine::Fit(fixture_.dataset, options);
  }

  // Bitwise model equality: Theta, gamma, every component, hard labels.
  static void ExpectModelsBitwiseEqual(const Model& got, const Model& want,
                                       const std::string& label) {
    EXPECT_EQ(got.theta.data(), want.theta.data())
        << label << ": Theta drifted";
    EXPECT_EQ(got.gamma, want.gamma) << label << ": gamma drifted";
    ASSERT_EQ(got.components.size(), want.components.size());
    for (size_t t = 0; t < want.components.size(); ++t) {
      if (want.components[t].kind() == AttributeKind::kCategorical) {
        EXPECT_EQ(got.components[t].beta().data(),
                  want.components[t].beta().data())
            << label << ": beta[" << t << "] drifted";
      } else {
        for (size_t k = 0; k < want.components[t].num_clusters(); ++k) {
          EXPECT_EQ(got.components[t].gaussian(k).mean(),
                    want.components[t].gaussian(k).mean())
              << label << ": mu[" << t << "," << k << "]";
          EXPECT_EQ(got.components[t].gaussian(k).variance(),
                    want.components[t].gaussian(k).variance())
              << label << ": sigma2[" << t << "," << k << "]";
        }
      }
    }
    EXPECT_EQ(got.HardLabels(), want.HardLabels())
        << label << ": hard labels drifted";
  }

  testing::TwoCommunityNetwork fixture_;
};

TEST_F(FitInvarianceFixture, ModelIsBitwiseIdenticalAcrossPoolSizes) {
  auto baseline = FitWith(1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (size_t threads : {2u, 8u}) {
    auto fit = FitWith(threads);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    ExpectModelsBitwiseEqual(fit->model, baseline->model,
                             std::to_string(threads) + " threads");
  }
}

TEST_F(FitInvarianceFixture, ReportedObjectiveIsInvariantToo) {
  auto serial = FitWith(1);
  auto pooled = FitWith(8);
  ASSERT_TRUE(serial.ok() && pooled.ok());
  EXPECT_EQ(serial->report.objective, pooled->report.objective);
  EXPECT_EQ(serial->report.outer_iterations, pooled->report.outer_iterations);
}

}  // namespace
}  // namespace genclus
