// Table 2: link prediction accuracy (MAP) for the <A,C> relation in the
// AC network — predicting which conferences an author publishes in from
// the learned membership vectors, under three similarity functions.
//
// Paper values:
//                NetPLSA   iTopicModel   GenClus
//   cos          0.4351    0.5117        0.7627
//   -||.||       0.4312    0.5010        0.7539
//   -H(tj,ti)    0.4323    0.5088        0.7753
// Shape: GenClus best for every similarity; the asymmetric cross entropy
// gives GenClus its best score.
#include <cstdio>

#include "baselines/topic_models.h"
#include "bench/bench_util.h"
#include "common/flags.h"
#include "core/engine.h"
#include "datagen/dblp_generator.h"
#include "eval/link_prediction.h"

int main(int argc, char** argv) {
  using namespace genclus;
  using namespace genclus::bench;
  Flags flags = Flags::Parse(argc, argv);

  DblpConfig data_config;
  data_config.num_authors =
      static_cast<size_t>(flags.GetInt("authors", 1000));
  data_config.num_papers = static_cast<size_t>(flags.GetInt("papers", 2500));
  data_config.seed = static_cast<uint64_t>(flags.GetInt("data-seed", 21));
  auto corpus = GenerateDblpCorpus(data_config);
  if (!corpus.ok()) return 1;
  auto ac = BuildAcNetwork(*corpus, data_config);
  if (!ac.ok()) return 1;
  const Dataset& dataset = ac->dataset;
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  NetPlsaConfig np_config;
  np_config.num_clusters = 4;
  np_config.seed = seed;
  auto np = RunNetPlsa(dataset.network, dataset.attributes[0], np_config);
  ITopicModelConfig it_config;
  it_config.num_clusters = 4;
  it_config.seed = seed;
  auto it = RunITopicModel(dataset.network, dataset.attributes[0],
                           it_config);
  FitOptions gen_options;
  gen_options.attributes = {"text"};
  gen_options.config.num_clusters = 4;
  gen_options.config.outer_iterations = 10;
  gen_options.config.em_iterations = 40;
  gen_options.config.num_init_seeds = 5;
  gen_options.config.init_em_steps = 3;
  gen_options.config.seed = seed;
  auto gen = Engine::Fit(dataset, gen_options);
  if (!np.ok() || !it.ok() || !gen.ok()) {
    std::fprintf(stderr, "a method failed\n");
    return 1;
  }

  PrintHeader("Table 2 — MAP for <A,C> prediction in the AC network");
  PrintRow({"similarity", "NetPLSA", "iTopicModel", "GenClus", "paper-Gen"});
  const double paper_gen[] = {0.7627, 0.7539, 0.7753};
  const SimilarityKind kinds[] = {SimilarityKind::kCosine,
                                  SimilarityKind::kNegativeEuclidean,
                                  SimilarityKind::kNegativeCrossEntropy};
  for (int i = 0; i < 3; ++i) {
    auto map_np = EvaluateLinkPrediction(dataset.network, np->theta,
                                         ac->publish_in, kinds[i]);
    auto map_it = EvaluateLinkPrediction(dataset.network, it->theta,
                                         ac->publish_in, kinds[i]);
    auto map_gen = EvaluateLinkPrediction(dataset.network, gen->model.theta,
                                          ac->publish_in, kinds[i]);
    PrintRow({SimilarityKindName(kinds[i]),
              Fmt(map_np.ok() ? map_np->map : NAN),
              Fmt(map_it.ok() ? map_it->map : NAN),
              Fmt(map_gen.ok() ? map_gen->map : NAN), Fmt(paper_gen[i])});
  }
  std::printf("\npaper shape: GenClus > iTopicModel > NetPLSA under every\n"
              "similarity; -H(tj,ti) best for GenClus.\n");
  return 0;
}
