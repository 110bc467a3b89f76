// Integration tests: full pipelines over the synthetic generators —
// exactly the flows the bench harness runs, at miniature scale.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "baselines/interpolation.h"
#include "baselines/kmeans.h"
#include "baselines/spectral.h"
#include "baselines/topic_models.h"
#include "core/engine.h"
#include "datagen/dblp_generator.h"
#include "datagen/weather_generator.h"
#include "eval/link_prediction.h"
#include "eval/nmi.h"
#include "hin/io.h"
#include "prob/simplex.h"

namespace genclus {
namespace {

// Miniature weather network shared across the weather-pipeline tests.
WeatherConfig MiniWeather() {
  WeatherConfig config = WeatherConfig::Setting1();
  config.num_temperature_sensors = 120;
  config.num_precipitation_sensors = 60;
  config.k_nearest = 5;
  config.observations_per_sensor = 5;
  config.seed = 2024;
  return config;
}

DblpConfig MiniDblp() {
  DblpConfig config;
  config.num_conferences = 8;
  config.num_authors = 120;
  config.num_papers = 400;
  config.vocab_size = 150;
  config.terms_per_area = 25;
  config.seed = 2025;
  return config;
}

// One Engine::Fit over the named attributes.
Result<FitResult> FitModel(const Dataset& dataset,
                           std::vector<std::string> attributes,
                           const GenClusConfig& config) {
  FitOptions options;
  options.attributes = std::move(attributes);
  options.config = config;
  return Engine::Fit(dataset, options);
}

GenClusConfig WeatherGenClusConfig() {
  GenClusConfig config;
  config.num_clusters = 4;
  config.outer_iterations = 5;
  config.em_iterations = 40;
  config.num_init_seeds = 2;
  config.seed = 7;
  return config;
}

TEST(WeatherPipelineTest, GenClusBeatsChanceClearly) {
  auto data = GenerateWeatherNetwork(MiniWeather());
  ASSERT_TRUE(data.ok());
  auto result = FitModel(data->dataset, {"temperature", "precipitation"},
                         WeatherGenClusConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const double nmi = NormalizedMutualInformation(
      result->model.HardLabels(), data->dataset.labels.raw());
  EXPECT_GT(nmi, 0.5);
}

TEST(WeatherPipelineTest, GenClusBeatsKMeansOnIncompleteAttributes) {
  auto data = GenerateWeatherNetwork(MiniWeather());
  ASSERT_TRUE(data.ok());
  auto gen = FitModel(data->dataset, {"temperature", "precipitation"},
                      WeatherGenClusConfig());
  ASSERT_TRUE(gen.ok());
  const double gen_nmi = NormalizedMutualInformation(
      gen->model.HardLabels(), data->dataset.labels.raw());

  const Attribute& temp = data->dataset.attributes[0];
  const Attribute& precip = data->dataset.attributes[1];
  auto features = InterpolateNumericalAttributes(data->dataset.network,
                                                 {&temp, &precip});
  ASSERT_TRUE(features.ok());
  KMeansConfig kconfig;
  kconfig.num_clusters = 4;
  kconfig.num_restarts = 5;
  kconfig.seed = 5;
  auto km = RunKMeans(*features, kconfig);
  ASSERT_TRUE(km.ok());
  const double km_nmi = NormalizedMutualInformation(
      km->labels, data->dataset.labels.raw());
  // Paper Fig. 7: GenClus dominates k-means (17/18 configurations).
  EXPECT_GT(gen_nmi, km_nmi - 0.05);
}

TEST(WeatherPipelineTest, LinkPredictionOnTpRelation) {
  auto data = GenerateWeatherNetwork(MiniWeather());
  ASSERT_TRUE(data.ok());
  auto result = FitModel(data->dataset, {"temperature", "precipitation"},
                         WeatherGenClusConfig());
  ASSERT_TRUE(result.ok());
  for (SimilarityKind kind :
       {SimilarityKind::kCosine, SimilarityKind::kNegativeEuclidean,
        SimilarityKind::kNegativeCrossEntropy}) {
    auto map = EvaluateLinkPrediction(data->dataset.network,
                                      result->model.theta, data->tp_link,
                                      kind);
    ASSERT_TRUE(map.ok());
    // kNN links follow geography which follows clusters: far better than
    // the ~k/|P| random baseline.
    EXPECT_GT(map->map, 0.2) << SimilarityKindName(kind);
  }
}

TEST(WeatherPipelineTest, StrengthsOrderedByAttributeQuality) {
  // Paper Table 5: T-typed neighbors are more reliable than P-typed in
  // Setting 1 with sparse P sensors (P sensors mix over 3 rings).
  auto data = GenerateWeatherNetwork(MiniWeather());
  ASSERT_TRUE(data.ok());
  auto result = FitModel(data->dataset, {"temperature", "precipitation"},
                         WeatherGenClusConfig());
  ASSERT_TRUE(result.ok());
  for (double g : result->model.gamma) EXPECT_GE(g, 0.0);
  // At least one strength strictly positive: links carry signal here.
  double max_gamma = 0.0;
  for (double g : result->model.gamma) max_gamma = std::max(max_gamma, g);
  EXPECT_GT(max_gamma, 0.0);
}

TEST(DblpPipelineTest, AcNetworkClusteringRecoversAreas) {
  auto corpus = GenerateDblpCorpus(MiniDblp());
  ASSERT_TRUE(corpus.ok());
  auto ac = BuildAcNetwork(*corpus, MiniDblp());
  ASSERT_TRUE(ac.ok());
  GenClusConfig config;
  config.num_clusters = 4;
  config.outer_iterations = 5;
  config.em_iterations = 40;
  config.num_init_seeds = 3;
  config.seed = 11;
  auto result = FitModel(ac->dataset, {"text"}, config);
  ASSERT_TRUE(result.ok());
  const double nmi = NormalizedMutualInformation(
      result->model.HardLabels(), ac->dataset.labels.raw());
  EXPECT_GT(nmi, 0.6);
}

TEST(DblpPipelineTest, AcpNetworkHandlesTextlessTypes) {
  auto corpus = GenerateDblpCorpus(MiniDblp());
  ASSERT_TRUE(corpus.ok());
  auto acp = BuildAcpNetwork(*corpus, MiniDblp());
  ASSERT_TRUE(acp.ok());
  GenClusConfig config;
  config.num_clusters = 4;
  config.outer_iterations = 5;
  config.em_iterations = 40;
  config.num_init_seeds = 3;
  config.seed = 13;
  auto result = FitModel(acp->dataset, {"text"}, config);
  ASSERT_TRUE(result.ok());
  // Authors carry no text; their NMI must still be far above zero.
  std::vector<uint32_t> author_truth(acp->dataset.network.num_nodes(),
                                     kUnlabeled);
  for (size_t a = 0; a < acp->author_nodes.size(); ++a) {
    author_truth[acp->author_nodes[a]] =
        acp->dataset.labels.Get(acp->author_nodes[a]);
  }
  const double author_nmi = NormalizedMutualInformation(
      result->model.HardLabels(), author_truth);
  EXPECT_GT(author_nmi, 0.3);
}

TEST(DblpPipelineTest, GenClusBeatsHomogeneousBaselinesOnAcp) {
  auto corpus = GenerateDblpCorpus(MiniDblp());
  ASSERT_TRUE(corpus.ok());
  auto acp = BuildAcpNetwork(*corpus, MiniDblp());
  ASSERT_TRUE(acp.ok());

  GenClusConfig config;
  config.num_clusters = 4;
  config.outer_iterations = 5;
  config.em_iterations = 40;
  config.num_init_seeds = 3;
  config.seed = 17;
  auto gen = FitModel(acp->dataset, {"text"}, config);
  ASSERT_TRUE(gen.ok());
  const double gen_nmi = NormalizedMutualInformation(
      gen->model.HardLabels(), acp->dataset.labels.raw());

  NetPlsaConfig np_config;
  np_config.num_clusters = 4;
  np_config.seed = 17;
  auto np = RunNetPlsa(acp->dataset.network,
                       acp->dataset.attributes[0], np_config);
  ASSERT_TRUE(np.ok());
  std::vector<uint32_t> np_labels(np->theta.rows());
  for (size_t v = 0; v < np->theta.rows(); ++v) {
    np_labels[v] = static_cast<uint32_t>(ArgMax(np->theta.RowVector(v)));
  }
  const double np_nmi = NormalizedMutualInformation(
      np_labels, acp->dataset.labels.raw());
  // Fig. 6's qualitative claim, with slack for the miniature scale.
  EXPECT_GT(gen_nmi, np_nmi - 0.1);
}

TEST(IoPipelineTest, WeatherRoundTripPreservesClustering) {
  WeatherConfig wconfig = MiniWeather();
  wconfig.num_temperature_sensors = 40;
  wconfig.num_precipitation_sensors = 20;
  wconfig.k_nearest = 3;
  auto data = GenerateWeatherNetwork(wconfig);
  ASSERT_TRUE(data.ok());

  const std::string path = ::testing::TempDir() + "/weather_pipe.tsv";
  ASSERT_TRUE(SaveDataset(data->dataset, path).ok());
  auto loaded = LoadDataset(path);
  ASSERT_TRUE(loaded.ok());

  GenClusConfig config = WeatherGenClusConfig();
  config.outer_iterations = 2;
  auto original = FitModel(data->dataset,
                           {"temperature", "precipitation"}, config);
  auto reloaded = FitModel(*loaded, {"temperature", "precipitation"},
                           config);
  ASSERT_TRUE(original.ok() && reloaded.ok());
  EXPECT_LT(
      Matrix::MaxAbsDiff(original->model.theta, reloaded->model.theta),
      1e-9);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace genclus
