// One-file downstream consumer: trains a tiny model through Engine::Fit,
// persists and reloads it, and serves fold-in queries through both the
// legacy wrapper (Infer) and the batch-planned pipeline (Plan/Execute).
// Exercises the installed headers and every exported library layer end to
// end.
#include <cstdio>
#include <filesystem>

#include "core/engine.h"
#include "core/model_io.h"
#include "hin/dataset.h"

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

  std::printf("consumer check OK: new doc membership [%.3f, %.3f] "
              "(hard label %u)\n",
              (*theta)[0], (*theta)[1], planned.hard_labels[0]);
  return 0;
}
