// Table 4: link prediction accuracy (MAP) for the <T,P> relation in the
// weather network (Setting 1, T=1000, P=250): predicting a temperature
// sensor's precipitation-typed kNN neighbors from membership similarity.
// GenClus only — the hard-clustering baselines produce no membership
// probabilities to rank with.
//
// Paper values: cos 0.7285, -||.|| 0.7690, -H(tj,ti) 0.8073 — the
// asymmetric cross entropy is the best ranker.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "core/engine.h"
#include "datagen/weather_generator.h"
#include "eval/link_prediction.h"

int main(int argc, char** argv) {
  using namespace genclus;
  using namespace genclus::bench;
  Flags flags = Flags::Parse(argc, argv);

  WeatherConfig wconfig = WeatherConfig::Setting1();
  wconfig.num_temperature_sensors =
      static_cast<size_t>(flags.GetInt("temperature-sensors", 1000));
  wconfig.num_precipitation_sensors =
      static_cast<size_t>(flags.GetInt("precipitation-sensors", 250));
  wconfig.observations_per_sensor =
      static_cast<size_t>(flags.GetInt("nobs", 5));
  wconfig.seed = static_cast<uint64_t>(flags.GetInt("data-seed", 11));
  auto data = GenerateWeatherNetwork(wconfig);
  if (!data.ok()) return 1;

  FitOptions options;
  options.attributes = {"temperature", "precipitation"};
  options.config.num_clusters = 4;
  options.config.outer_iterations = 5;
  options.config.em_iterations = 40;
  options.config.num_init_seeds = 5;
  options.config.init_em_steps = 5;
  options.config.seed = static_cast<uint64_t>(flags.GetInt("seed", 3));
  auto gen = Engine::Fit(data->dataset, options);
  if (!gen.ok()) {
    std::fprintf(stderr, "%s\n", gen.status().ToString().c_str());
    return 1;
  }

  PrintHeader("Table 4 — MAP for <T,P> prediction in the weather network");
  PrintRow({"similarity", "GenClus", "paper"});
  const double paper[] = {0.7285, 0.7690, 0.8073};
  const SimilarityKind kinds[] = {SimilarityKind::kCosine,
                                  SimilarityKind::kNegativeEuclidean,
                                  SimilarityKind::kNegativeCrossEntropy};
  for (int i = 0; i < 3; ++i) {
    auto map = EvaluateLinkPrediction(data->dataset.network, gen->model.theta,
                                      data->tp_link, kinds[i]);
    PrintRow({SimilarityKindName(kinds[i]),
              Fmt(map.ok() ? map->map : NAN), Fmt(paper[i])});
  }
  std::printf("\npaper shape: the asymmetric -H(tj,ti) ranks best.\n");
  return 0;
}
