// Figure 9: learned link-type strengths on the two DBLP four-area
// networks.
//
// Paper values:
//   AC network:  publish_in<A,C> = 14.46, published_by<C,A> = 10.96,
//                coauthor<A,A> = 0.01.
//   ACP network: write<A,P> = 13.99, written_by<P,A> = 13.30,
//                publish<C,P> = 0.54, published_by<P,C> = 3.13.
// Shape: author-paper/author-conference relations dominate; the coauthor
// relation is learned to be nearly useless for area clustering, and
// written_by(P,A) >> published_by(P,C) (an author predicts a paper's area
// far better than its venue).
#include <cstdio>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "core/engine.h"
#include "datagen/dblp_generator.h"

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

  FitOptions options;
  options.attributes = {"text"};
  options.config.num_clusters = 4;
  options.config.outer_iterations = 10;
  options.config.em_iterations = 40;
  options.config.num_init_seeds = 5;
  options.config.init_em_steps = 3;
  options.config.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  PrintHeader("Fig. 9(a) — Strengths in the AC network");
  auto ac = BuildAcNetwork(*corpus, data_config);
  if (!ac.ok()) return 1;
  auto gen_ac = Engine::Fit(ac->dataset, options);
  if (!gen_ac.ok()) return 1;
  const std::vector<double>& ac_gamma = gen_ac->model.gamma;
  PrintRow({"relation", "measured", "paper"});
  PrintRow({"publish_in<A,C>", Fmt(ac_gamma[ac->publish_in]), Fmt(14.46)});
  PrintRow({"published_by<C,A>", Fmt(ac_gamma[ac->published_by]),
            Fmt(10.96)});
  PrintRow({"coauthor<A,A>", Fmt(ac_gamma[ac->coauthor]), Fmt(0.01)});

  PrintHeader("Fig. 9(b) — Strengths in the ACP network");
  auto acp = BuildAcpNetwork(*corpus, data_config);
  if (!acp.ok()) return 1;
  auto gen_acp = Engine::Fit(acp->dataset, options);
  if (!gen_acp.ok()) return 1;
  const std::vector<double>& acp_gamma = gen_acp->model.gamma;
  PrintRow({"relation", "measured", "paper"});
  PrintRow({"write<A,P>", Fmt(acp_gamma[acp->write]), Fmt(13.99)});
  PrintRow({"written_by<P,A>", Fmt(acp_gamma[acp->written_by]), Fmt(13.30)});
  PrintRow({"publish<C,P>", Fmt(acp_gamma[acp->publish]), Fmt(0.54)});
  PrintRow({"published_by<P,C>", Fmt(acp_gamma[acp->published_by]),
            Fmt(3.13)});

  std::printf(
      "\npaper shape: <A,C> >> <A,A> in the AC network; written_by<P,A> >>\n"
      "published_by<P,C> in the ACP network (absolute scales depend on the\n"
      "network's size and weight mass; orderings are the claim).\n");
  return 0;
}
