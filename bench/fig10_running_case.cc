// Figure 10: a typical running case on the AC network — per-outer-
// iteration clustering accuracy (NMI for conferences and authors) and
// link-type strengths, demonstrating the mutual enhancement of the
// clustering and the learned strengths.
//
// Paper reference (Fig. 10): conference NMI ~1.0 quickly; author NMI rises
// over iterations; gamma trajectories separate — publish_in<A,C> and
// published_by<C,A> rise while coauthor<A,A> collapses toward 0 —
// converging within ~10 iterations.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/string_util.h"
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
  auto ac = BuildAcNetwork(*corpus, data_config);
  if (!ac.ok()) return 1;

  FitOptions options;
  options.attributes = {"text"};
  options.config.num_clusters = 4;
  options.config.outer_iterations =
      static_cast<size_t>(flags.GetInt("iterations", 10));
  options.config.outer_tolerance = 0.0;  // show every iteration
  options.config.em_iterations = 40;
  options.config.num_init_seeds = 5;
  options.config.init_em_steps = 3;
  options.config.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  PrintHeader("Fig. 10 — Running case on the AC network");
  PrintRow({"iter", "NMI(C)", "NMI(A)", "g<A,C>", "g<C,A>", "g<A,A>",
            "g1-objective"});

  // Streams one table row per outer iteration as training progresses.
  class RowPrinter : public ProgressObserver {
   public:
    explicit RowPrinter(const AcNetworkData* ac) : ac_(ac) {}
    void OnOuterIteration(const OuterIterationRecord& record,
                          const Matrix& theta) override {
      const auto pred = HardLabels(theta);
      PrintRow(
          {StrFormat("%zu", record.iteration),
           Fmt(SubsetNmi(pred, ac_->dataset.labels, ac_->conference_nodes)),
           Fmt(SubsetNmi(pred, ac_->dataset.labels, ac_->author_nodes)),
           Fmt(record.gamma[ac_->publish_in]),
           Fmt(record.gamma[ac_->published_by]),
           Fmt(record.gamma[ac_->coauthor]),
           StrFormat("%.1f", record.em_objective)});
    }

   private:
    const AcNetworkData* ac_;
  };
  RowPrinter printer(&*ac);
  options.observer = &printer;
  auto fit = Engine::Fit(ac->dataset, options);
  if (!fit.ok()) {
    std::fprintf(stderr, "%s\n", fit.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\npaper shape (Fig. 10): accuracy and strengths co-evolve; gamma\n"
      "starts all-ones, the informative relations rise, coauthor falls,\n"
      "both converge within ~10 iterations.\n");
  return 0;
}
