// Quickstart: build the paper's Fig. 2/Fig. 4 style toy bibliographic
// network by hand, train a clustering Model with Engine::Fit, print the
// soft clustering and the learned relation strengths — then persist the
// model, reload it, and serve fold-in queries for brand-new papers
// through the serving tier: a Server coalesces singly-submitted queries
// into micro-batches behind a bounded queue, and each future's
// QueryResult carries status, membership and latency (train once,
// serve many).
//
//   papers carry text; authors and venues carry nothing — their membership
//   comes purely from links, and the strength of each relation is learned.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <filesystem>
#include <future>
#include <vector>

#include "core/engine.h"
#include "core/model_io.h"
#include "core/server.h"
#include "hin/dataset.h"

using namespace genclus;

int main() {
  // 1. Declare the schema: object types and directed relations.
  Schema schema;
  ObjectTypeId author = schema.AddObjectType("author").value();
  ObjectTypeId paper = schema.AddObjectType("paper").value();
  ObjectTypeId venue = schema.AddObjectType("venue").value();
  LinkTypeId write = schema.AddLinkType("write", author, paper).value();
  LinkTypeId written_by =
      schema.AddLinkType("written_by", paper, author).value();
  LinkTypeId published_by =
      schema.AddLinkType("published_by", paper, venue).value();
  LinkTypeId publish = schema.AddLinkType("publish", venue, paper).value();
  (void)schema.SetInverse(write, written_by);
  (void)schema.SetInverse(publish, published_by);

  // 2. Add objects: 2 authors, 6 papers, 2 venues. Authors 0/1 work on
  //    "databases" / "learning"; venues 0/1 host those areas.
  NetworkBuilder builder(schema);
  NodeId authors[2];
  NodeId papers[6];
  NodeId venues[2];
  for (int i = 0; i < 2; ++i) {
    authors[i] =
        builder.AddNode(author, i == 0 ? "alice" : "bob").value();
    venues[i] = builder.AddNode(venue, i == 0 ? "VLDB" : "ICML").value();
  }
  for (int p = 0; p < 6; ++p) {
    papers[p] = builder.AddNode(paper, "paper" + std::to_string(p)).value();
  }

  // 3. Links: author i writes papers 3i..3i+2, published in venue i.
  for (int p = 0; p < 6; ++p) {
    const int a = p / 3;
    (void)builder.AddLink(authors[a], papers[p], write);
    (void)builder.AddLink(papers[p], authors[a], written_by);
    (void)builder.AddLink(papers[p], venues[a], published_by);
    (void)builder.AddLink(venues[a], papers[p], publish);
  }

  Dataset dataset;
  dataset.network = std::move(builder).Build().value();

  // 4. Text attribute on papers only (vocabulary of 4 terms; terms 0-1 are
  //    database words, terms 2-3 learning words). Authors/venues have NO
  //    attributes — the incomplete case GenClus is built for.
  Attribute text =
      Attribute::Categorical("text", 4, dataset.network.num_nodes());
  for (int p = 0; p < 6; ++p) {
    const uint32_t base = p < 3 ? 0 : 2;
    (void)text.AddTermCount(papers[p], base, 2.0);
    (void)text.AddTermCount(papers[p], base + 1, 1.0);
  }
  dataset.attributes.push_back(std::move(text));

  // 5. Train with K = 2. Engine::Fit returns a persistable Model plus a
  //    FitReport summarizing the run.
  FitOptions options;
  options.attributes = {"text"};
  options.config.num_clusters = 2;
  options.config.outer_iterations = 5;
  options.config.seed = 1;
  auto fit = Engine::Fit(dataset, options);
  if (!fit.ok()) {
    std::fprintf(stderr, "Engine::Fit failed: %s\n",
                 fit.status().ToString().c_str());
    return 1;
  }
  const Model& model = fit->model;
  std::printf("fit: %zu outer iterations in %.3fs, converged=%s\n\n",
              fit->report.outer_iterations, fit->report.total_seconds,
              fit->report.converged ? "yes" : "no");

  // 6. Inspect the output: every object now has a membership vector, and
  //    every relation a learned strength.
  std::printf("soft clustering (theta):\n");
  for (NodeId v = 0; v < dataset.network.num_nodes(); ++v) {
    std::printf("  %-8s [%.3f, %.3f]\n",
                dataset.network.node_name(v).c_str(), model.theta(v, 0),
                model.theta(v, 1));
  }
  std::printf("learned relation strengths (gamma):\n");
  for (LinkTypeId r = 0; r < schema.num_link_types(); ++r) {
    std::printf("  %-14s %.3f\n", model.link_types[r].c_str(),
                model.gamma[r]);
  }

  // 7. Train once, serve many: persist the model, reload it, and answer a
  //    membership query for a NEW paper without retraining.
  const std::string model_path =
      (std::filesystem::temp_directory_path() / "quickstart_model.genclus")
          .string();
  if (Status s = SaveModelBinary(model, model_path); !s.ok()) {
    std::fprintf(stderr, "SaveModelBinary failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  auto reloaded = LoadModelBinary(model_path);
  if (!reloaded.ok()) {
    std::fprintf(stderr, "LoadModelBinary failed: %s\n",
                 reloaded.status().ToString().c_str());
    return 1;
  }
  // The serving tier: a bounded request queue in front of the batch
  // planner. Producers submit one query at a time; workers coalesce
  // whatever is queued into a micro-batch and run it through the SpMM
  // batch path, so single-query traffic executes at batch throughput.
  // A full queue rejects immediately with kResourceExhausted instead of
  // blocking the producer.
  ServerOptions serve_options;
  serve_options.num_workers = 2;
  serve_options.queue_capacity = 256;
  serve_options.max_batch = 64;
  auto server = Server::Create(&dataset.network,
                               std::move(reloaded).value(), serve_options);
  if (!server.ok()) {
    std::fprintf(stderr, "Server::Create failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  // Two new papers: one by alice at VLDB using database words, one by bob
  // at ICML using learning words. Each Submit returns a future whose
  // QueryResult carries status, membership, hard label and the query's
  // queue/total latency.
  std::vector<NewObjectQuery> queries(2);
  queries[0].links.push_back({authors[0], written_by, 1.0});
  queries[0].links.push_back({venues[0], published_by, 1.0});
  queries[0].observations.push_back(
      NewObjectObservation::Categorical(/*attribute=*/0, /*term=*/0,
                                        /*count=*/2.0));
  queries[1].links.push_back({authors[1], written_by, 1.0});
  queries[1].links.push_back({venues[1], published_by, 1.0});
  queries[1].observations.push_back(
      NewObjectObservation::Categorical(/*attribute=*/0, /*term=*/3,
                                        /*count=*/2.0));

  std::vector<std::future<QueryResult>> pending;
  for (const NewObjectQuery& query : queries) {
    auto submitted = (*server)->Submit(query);
    if (!submitted.ok()) {  // kResourceExhausted = queue full, back off
      std::fprintf(stderr, "Submit rejected: %s\n",
                   submitted.status().ToString().c_str());
      return 1;
    }
    pending.push_back(std::move(submitted).value());
  }
  std::printf("\nnew papers served from the reloaded model:\n");
  const char* blurb[2] = {"alice + VLDB + database words",
                          "bob + ICML + learning words"};
  for (size_t i = 0; i < pending.size(); ++i) {
    const QueryResult answer = pending[i].get();
    if (!answer.ok()) {
      std::fprintf(stderr, "query %zu failed: %s\n", i,
                   answer.status.ToString().c_str());
      return 1;
    }
    std::printf("  %-32s [%.3f, %.3f] -> cluster %u (%.0fus end to end)\n",
                blurb[i], answer.membership[0], answer.membership[1],
                answer.hard_label, answer.total_seconds * 1e6);
  }
  const ServerStats stats = (*server)->Stats();
  std::printf("server: %zu accepted, %zu micro-batches, "
              "p99 end-to-end %.0fus\n",
              stats.accepted, stats.batches, stats.end_to_end.p99_us);
  std::printf("\nExpected: papers/authors/venues of the two areas fall in\n"
              "opposite clusters; all objects get memberships even though\n"
              "only papers carry text — and new objects are served without\n"
              "retraining, one SpMM batch at a time.\n");
  std::filesystem::remove(model_path);
  return 0;
}
