// Ablation: learned relation strengths vs all-ones strengths (gamma = 1,
// i.e. Algorithm 1 without Step 2). This isolates the paper's headline
// mechanism — everything else (model, EM, init) identical.
//
// Expected: learned gamma matches or beats fixed gamma, with the margin
// widening when relations differ in quality (the ACP network's broad
// venues; the weather network's unreliable P-typed neighbors).
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "core/engine.h"
#include "datagen/dblp_generator.h"
#include "datagen/weather_generator.h"

int main(int argc, char** argv) {
  using namespace genclus;
  using namespace genclus::bench;
  Flags flags = Flags::Parse(argc, argv);
  const size_t runs = static_cast<size_t>(flags.GetInt("runs", 2));

  PrintHeader("Ablation — learned gamma vs fixed gamma = 1");
  PrintRow({"workload", "fixed", "learned", "delta"});

  // NMI of one Engine::Fit over every labeled node (0 when the fit fails).
  auto fit_nmi = [](const Dataset& dataset,
                    std::vector<std::string> attributes,
                    const GenClusConfig& config) {
    FitOptions options;
    options.attributes = std::move(attributes);
    options.config = config;
    auto fit = Engine::Fit(dataset, options);
    return fit.ok() ? OverallNmi(fit->model.HardLabels(), dataset.labels)
                    : 0.0;
  };
  auto summarize = [&](const char* name, auto run_once) {
    std::vector<double> fixed;
    std::vector<double> learned;
    for (size_t run = 0; run < runs; ++run) {
      auto [f, l] = run_once(1000 + 77 * run);
      fixed.push_back(f);
      learned.push_back(l);
    }
    const MeanStd f = Summarize(fixed);
    const MeanStd l = Summarize(learned);
    PrintRow({name, FmtMeanStd(f), FmtMeanStd(l), Fmt(l.mean - f.mean)});
  };

  // ACP network.
  DblpConfig dconfig;
  dconfig.num_authors = 1000;
  dconfig.num_papers = 2500;
  dconfig.seed = 21;
  auto corpus = GenerateDblpCorpus(dconfig);
  if (!corpus.ok()) return 1;
  auto acp = BuildAcpNetwork(*corpus, dconfig);
  if (!acp.ok()) return 1;
  summarize("DBLP ACP (NMI)", [&](uint64_t seed) {
    GenClusConfig config;
    config.num_clusters = 4;
    config.outer_iterations = 10;
    config.em_iterations = 40;
    config.num_init_seeds = 3;
    config.init_em_steps = 3;
    config.seed = seed;
    config.learn_strengths = false;
    const double fixed = fit_nmi(acp->dataset, {"text"}, config);
    config.learn_strengths = true;
    return std::pair(fixed, fit_nmi(acp->dataset, {"text"}, config));
  });

  // ACP network with sparse titles: when the attribute signal is weak,
  // clustering hinges on propagating through the RIGHT relations, and
  // learning gamma pays off — the regime the paper's contribution targets.
  DblpConfig sparse_config = dconfig;
  sparse_config.title_min_terms = 3;
  sparse_config.title_max_terms = 6;
  sparse_config.background_term_prob = 0.5;
  sparse_config.broad_venue_prob = 0.4;
  auto sparse_corpus = GenerateDblpCorpus(sparse_config);
  if (!sparse_corpus.ok()) return 1;
  auto sparse_acp = BuildAcpNetwork(*sparse_corpus, sparse_config);
  if (!sparse_acp.ok()) return 1;
  summarize("DBLP ACP sparse text", [&](uint64_t seed) {
    GenClusConfig config;
    config.num_clusters = 4;
    config.outer_iterations = 10;
    config.em_iterations = 40;
    config.num_init_seeds = 3;
    config.init_em_steps = 3;
    config.seed = seed;
    config.learn_strengths = false;
    const double fixed = fit_nmi(sparse_acp->dataset, {"text"}, config);
    config.learn_strengths = true;
    return std::pair(fixed, fit_nmi(sparse_acp->dataset, {"text"}, config));
  });

  // Weather network, Setting 1.
  WeatherConfig wconfig = WeatherConfig::Setting1();
  wconfig.num_precipitation_sensors = 250;
  wconfig.observations_per_sensor = 5;
  wconfig.seed = 11;
  auto weather = GenerateWeatherNetwork(wconfig);
  if (!weather.ok()) return 1;
  summarize("Weather S1 (NMI)", [&](uint64_t seed) {
    GenClusConfig config;
    config.num_clusters = 4;
    config.outer_iterations = 5;
    config.em_iterations = 40;
    config.num_init_seeds = 5;
    config.init_em_steps = 5;
    config.seed = seed;
    const std::vector<std::string> attributes = {"temperature",
                                                 "precipitation"};
    config.learn_strengths = false;
    const double fixed = fit_nmi(weather->dataset, attributes, config);
    config.learn_strengths = true;
    return std::pair(fixed, fit_nmi(weather->dataset, attributes, config));
  });
  return 0;
}
