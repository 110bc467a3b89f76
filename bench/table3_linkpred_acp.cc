// Table 3: link prediction accuracy (MAP) for the <P,C> relation in the
// ACP network — predicting the conference a paper is published in.
//
// Paper values:
//                NetPLSA   iTopicModel   GenClus
//   cos          0.2762    0.4609        0.5170
//   -||.||       0.2759    0.4600        0.5142
//   -H(tj,ti)    0.2760    0.4683        0.5183
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
  auto acp = BuildAcpNetwork(*corpus, data_config);
  if (!acp.ok()) return 1;
  const Dataset& dataset = acp->dataset;
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

  PrintHeader("Table 3 — MAP for <P,C> prediction in the ACP network");
  PrintRow({"similarity", "NetPLSA", "iTopicModel", "GenClus", "paper-Gen"});
  const double paper_gen[] = {0.5170, 0.5142, 0.5183};
  const SimilarityKind kinds[] = {SimilarityKind::kCosine,
                                  SimilarityKind::kNegativeEuclidean,
                                  SimilarityKind::kNegativeCrossEntropy};
  for (int i = 0; i < 3; ++i) {
    auto map_np = EvaluateLinkPrediction(dataset.network, np->theta,
                                         acp->published_by, kinds[i]);
    auto map_it = EvaluateLinkPrediction(dataset.network, it->theta,
                                         acp->published_by, kinds[i]);
    auto map_gen = EvaluateLinkPrediction(dataset.network, gen->model.theta,
                                          acp->published_by, kinds[i]);
    PrintRow({SimilarityKindName(kinds[i]),
              Fmt(map_np.ok() ? map_np->map : NAN),
              Fmt(map_it.ok() ? map_it->map : NAN),
              Fmt(map_gen.ok() ? map_gen->map : NAN), Fmt(paper_gen[i])});
  }
  std::printf("\npaper shape: GenClus > iTopicModel >> NetPLSA.\n");
  return 0;
}
