// One-file downstream consumer: trains a tiny model through Engine::Fit,
// persists and reloads it, serves fold-in queries through both the
// legacy wrapper (Infer) and the batch-planned pipeline (Plan/Execute),
// walks the adjacency (OutLinks against the per-relation OutCsr), and
// grows the dataset and model by one delta through ApplyUpdates.
// Exercises the installed headers and every exported library layer end to
// end.
#include <cstdio>
#include <filesystem>
#include <vector>

#include "core/engine.h"
#include "core/model_io.h"
#include "core/update.h"
#include "hin/dataset.h"

namespace {

// Whether every node's OutLinks, walked with a range-for, lists its row of
// each relation's OutCsr in relation order, and size() counts them.
bool OutLinksMatchCsr(const genclus::Network& net) {
  using namespace genclus;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    std::vector<LinkEntry> rows;
    for (LinkTypeId r = 0; r < net.schema().num_link_types(); ++r) {
      const RelationCsr csr = net.OutCsr(r);
      for (size_t i = csr.row_offsets[v]; i < csr.row_offsets[v + 1]; ++i) {
        rows.push_back({csr.neighbors[i], r, csr.weights[i]});
      }
    }
    if (net.OutLinks(v).size() != rows.size()) return false;
    size_t i = 0;
    for (const LinkEntry& e : net.OutLinks(v)) {
      if (e.neighbor != rows[i].neighbor || e.type != rows[i].type ||
          e.weight != rows[i].weight) {
        return false;
      }
      ++i;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace genclus;

  Schema schema;
  ObjectTypeId doc = schema.AddObjectType("doc").value();
  LinkTypeId cites = schema.AddLinkType("cites", doc, doc).value();

  NetworkBuilder builder(schema);
  for (int i = 0; i < 8; ++i) {
    (void)builder.AddNode(doc, "doc" + std::to_string(i)).value();
  }
  // Two 4-cliques.
  for (NodeId a = 0; a < 8; ++a) {
    for (NodeId b = 0; b < 8; ++b) {
      if (a != b && a / 4 == b / 4) (void)builder.AddLink(a, b, cites);
    }
  }
  Dataset dataset;
  dataset.network = std::move(builder).Build().value();
  if (!OutLinksMatchCsr(dataset.network)) return 1;
  Attribute text = Attribute::Categorical("text", 2, 8);
  for (NodeId v = 0; v < 8; ++v) {
    (void)text.AddTermCount(v, v < 4 ? 0 : 1, 3.0);
  }
  dataset.attributes.push_back(std::move(text));

  FitOptions options;
  options.attributes = {"text"};
  options.config.num_clusters = 2;
  options.config.outer_iterations = 3;
  auto fit = Engine::Fit(dataset, options);
  if (!fit.ok()) {
    std::fprintf(stderr, "Fit failed: %s\n",
                 fit.status().ToString().c_str());
    return 1;
  }

  const auto path =
      (std::filesystem::temp_directory_path() / "consumer_check.model")
          .string();
  if (!SaveModelBinary(fit->model, path).ok()) return 1;
  auto model = LoadModelBinary(path);
  std::filesystem::remove(path);
  if (!model.ok()) return 1;

  auto engine =
      Engine::Create(&dataset.network, std::move(model).value());
  if (!engine.ok()) return 1;
  NewObjectQuery query;
  query.links.push_back({0, cites, 1.0});
  auto theta = engine->Infer(query);
  if (!theta.ok() || theta->size() != 2) return 1;

  // The batch-planned pipeline must agree with the wrapper exactly.
  InferenceResult planned = engine->Execute(engine->Plan({&query, 1}));
  if (planned.size() != 1 || !planned.ok(0) ||
      planned.memberships.RowVector(0) != *theta) {
    return 1;
  }

  // Grow a copy of the dataset and the model by one delta: a new doc
  // citing doc 0. The engine above keeps serving the original network.
  Dataset grown = dataset;
  Model updated = fit->model;
  NetworkDelta delta;
  delta.nodes.push_back({doc, "doc8"});
  delta.links.push_back({8, 0, cites, 2.5});
  delta.observations.push_back({/*attribute=*/0, 8, /*term=*/0, 3.0});
  auto report = ApplyUpdates(&grown, &updated, {&delta, 1});
  if (!report.ok() || grown.network.num_nodes() != 9 ||
      updated.num_nodes() != 9) {
    return 1;
  }
  bool in_view = false;
  for (const LinkEntry& e : grown.network.OutLinks(8)) {
    in_view = in_view ||
              (e.neighbor == 0 && e.type == cites && e.weight == 2.5);
  }
  const RelationCsr csr = grown.network.OutCsr(cites);
  const bool in_csr = csr.row_offsets[9] - csr.row_offsets[8] == 1 &&
                      csr.neighbors[csr.row_offsets[8]] == 0 &&
                      csr.weights[csr.row_offsets[8]] == 2.5;
  if (!in_view || !in_csr || !OutLinksMatchCsr(grown.network)) return 1;

  std::printf("consumer check OK: new doc membership [%.3f, %.3f] "
              "(hard label %u)\n",
              (*theta)[0], (*theta)[1], planned.hard_labels[0]);
  return 0;
}
