// Model persistence bench: SaveModelBinary/LoadModelBinary wall time on a
// fig11-style weather fixture, written to BENCH_model_io.json so the
// load-path trajectory is machine-readable PR over PR.
//
// The model is synthesized from the generator's planted membership (Θ),
// the schema's link types (γ), Gaussian components for the two weather
// attributes and one bulky categorical vocabulary, so file sizes are
// realistic without paying for a training run. Timings are best of
// --reps.
//
// Correctness gate (non-zero exit, CI treats as broken build): the round
// trip must reproduce the model bit for bit.
//
// Flags: --out FILE (default BENCH_model_io.json), --small (CI fixture),
//        --reps N (default 5).
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/model.h"
#include "core/model_io.h"
#include "datagen/weather_generator.h"

namespace {

using namespace genclus;

struct Cell {
  size_t nodes = 0;
  size_t clusters = 0;
  size_t vocab = 0;
  size_t binary_bytes = 0;
  double binary_save_ms = 0.0;
  double binary_load_ms = 0.0;
  bool roundtrip_bitwise = false;
};

// A trained-shaped model over the weather fixture: planted Θ, schema γ,
// Gaussians for the weather attributes, one wide categorical vocabulary.
Model SynthesizeModel(const WeatherData& data, size_t vocab) {
  Model model;
  model.theta = data.true_membership;
  model.theta_shards = 2;  // exercise the multi-block shard table
  const Schema& schema = data.dataset.network.schema();
  Rng rng(29);
  for (LinkTypeId r = 0; r < schema.num_link_types(); ++r) {
    model.link_types.push_back(schema.link_type(r).name);
    model.gamma.push_back(0.5 + rng.Uniform());
  }
  const size_t num_clusters = model.num_clusters();
  for (const char* name : {"temperature", "precipitation"}) {
    model.attributes.push_back({name, AttributeKind::kNumerical, 0});
    std::vector<GaussianDistribution> gaussians;
    for (size_t k = 0; k < num_clusters; ++k) {
      gaussians.emplace_back(rng.Gaussian(0.0, 3.0), 0.25 + rng.Uniform());
    }
    model.components.push_back(
        AttributeComponents::Numerical(std::move(gaussians)));
  }
  model.attributes.push_back({"terms", AttributeKind::kCategorical, vocab});
  AttributeComponents comp =
      AttributeComponents::CategoricalUniform(num_clusters, vocab);
  for (double& value : comp.mutable_beta()->data()) {
    value = rng.Uniform();
  }
  model.components.push_back(std::move(comp));
  model.objective = -4321.0987654321;
  return model;
}

bool ModelsBitwiseEqual(const Model& a, const Model& b) {
  if (a.theta.data() != b.theta.data() || a.gamma != b.gamma ||
      a.link_types != b.link_types || a.objective != b.objective ||
      a.theta_shards != b.theta_shards ||
      a.components.size() != b.components.size()) {
    return false;
  }
  for (size_t i = 0; i < a.components.size(); ++i) {
    if (a.components[i].kind() != b.components[i].kind()) return false;
    if (a.components[i].kind() == AttributeKind::kCategorical) {
      if (a.components[i].beta().data() != b.components[i].beta().data()) {
        return false;
      }
    } else {
      for (size_t k = 0; k < a.num_clusters(); ++k) {
        const auto& ga = a.components[i].gaussian(static_cast<ClusterId>(k));
        const auto& gb = b.components[i].gaussian(static_cast<ClusterId>(k));
        if (ga.mean() != gb.mean() || ga.variance() != gb.variance()) {
          return false;
        }
      }
    }
  }
  return true;
}

size_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<size_t>(size);
}

void WriteJson(const std::string& path, const std::string& fixture,
               const std::vector<Cell>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"model_io\",\n");
  std::fprintf(f, "  \"fixture\": \"%s\",\n", fixture.c_str());
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        f,
        "    {\"nodes\": %zu, \"clusters\": %zu, \"vocab\": %zu, "
        "\"binary_bytes\": %zu, \"binary_save_ms\": %.4f, "
        "\"binary_load_ms\": %.4f, \"roundtrip_bitwise\": %s}%s\n",
        c.nodes, c.clusters, c.vocab, c.binary_bytes, c.binary_save_ms,
        c.binary_load_ms, c.roundtrip_bitwise ? "true" : "false",
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace genclus::bench;
  Flags flags = Flags::Parse(argc, argv);
  const bool small = flags.GetBool("small", false);
  const size_t reps = static_cast<size_t>(flags.GetInt("reps", 5));
  const std::string out = flags.GetString("out", "BENCH_model_io.json");

  // Fig. 11 sweep shape: precipitation sensor counts scale the node
  // range; the categorical vocabulary supplies beta bulk.
  std::vector<size_t> precipitation_sizes =
      small ? std::vector<size_t>{60} : std::vector<size_t>{250, 500, 1000};
  const size_t num_temperature = small ? 250 : 1000;
  const size_t vocab = small ? 1000 : 4000;

  PrintHeader("model I/O: binary persistence");
  PrintRow({"nodes", "bin_kb", "b_save", "b_load"});

  const std::string binary_path =
      (std::filesystem::temp_directory_path() / "genclus_io_bench.bin")
          .string();

  std::vector<Cell> cells;
  bool gates_ok = true;
  for (size_t num_p : precipitation_sizes) {
    WeatherConfig wconfig = WeatherConfig::Setting1();
    wconfig.num_temperature_sensors = num_temperature;
    wconfig.num_precipitation_sensors = num_p;
    wconfig.observations_per_sensor = 5;
    wconfig.seed = 11;
    auto data = GenerateWeatherNetwork(wconfig);
    if (!data.ok()) {
      std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
      return 1;
    }
    const Model model = SynthesizeModel(*data, vocab);

    Cell cell;
    cell.nodes = model.num_nodes();
    cell.clusters = model.num_clusters();
    cell.vocab = vocab;
    cell.binary_save_ms = 1e300;
    cell.binary_load_ms = 1e300;
    cell.roundtrip_bitwise = true;
    for (size_t rep = 0; rep < reps; ++rep) {
      {
        WallTimer timer;
        const Status saved = SaveModelBinary(model, binary_path);
        cell.binary_save_ms = std::min(cell.binary_save_ms, timer.Millis());
        if (!saved.ok()) {
          std::fprintf(stderr, "%s\n", saved.ToString().c_str());
          return 1;
        }
      }
      {
        WallTimer timer;
        auto loaded = LoadModelBinary(binary_path);
        cell.binary_load_ms = std::min(cell.binary_load_ms, timer.Millis());
        if (!loaded.ok()) {
          std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
          return 1;
        }
        cell.roundtrip_bitwise =
            cell.roundtrip_bitwise && ModelsBitwiseEqual(model, *loaded);
      }
    }
    cell.binary_bytes = FileBytes(binary_path);

    if (!cell.roundtrip_bitwise) {
      std::fprintf(stderr,
                   "FAIL: persistence round trip not bitwise at %zu nodes\n",
                   cell.nodes);
      gates_ok = false;
    }

    PrintRow({StrFormat("%zu", cell.nodes),
              StrFormat("%.1f", cell.binary_bytes / 1024.0),
              StrFormat("%.3fms", cell.binary_save_ms),
              StrFormat("%.3fms", cell.binary_load_ms)});
    cells.push_back(cell);
  }
  std::remove(binary_path.c_str());

  WriteJson(out, small ? "weather_s1_small" : "weather_s1_fig11", cells);
  std::printf("\nwrote %s\n", out.c_str());
  if (!gates_ok) return 1;
  return 0;
}
