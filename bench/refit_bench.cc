// Incremental-maintenance bench: warm-start Engine::Refit vs
// from-scratch Engine::Fit on a grown weather network, written to
// BENCH_refit.json so the maintenance-path trajectory is machine-readable
// PR over PR.
//
// Growth scenario: the base model is fitted with only part of the
// precipitation sensors deployed; the remainder arrives as a
// NetworkDelta (SliceDatasetPrefix produces exactly that delta), and the
// grown network is re-solved two ways — cold Fit, and Refit warm-started
// from the base model.
//
// Correctness gates (non-zero exit, CI treats as broken build):
//   * warm Refit must reach the cold fit's NMI minus at most 0.01;
//   * warm Refit must spend at most 50% of the cold fit's EM sweeps;
//   * the warm Refit iterate must be bitwise invariant to thread count x
//     shard count (Model::Fingerprint equality).
//
// Flags: --out FILE (default BENCH_refit.json), --small (CI fixture),
//        --data-seed N, --seed N.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/update.h"
#include "datagen/weather_generator.h"
#include "hin/delta.h"

namespace {

using namespace genclus;
using namespace genclus::bench;

struct Cell {
  size_t base_nodes = 0;
  size_t full_nodes = 0;
  double full_nmi = 0.0;
  double refit_nmi = 0.0;
  size_t full_em_sweeps = 0;
  size_t refit_em_sweeps = 0;
  double sweep_ratio = 0.0;  // refit / full
  double full_seconds = 0.0;
  double refit_seconds = 0.0;
  uint64_t refit_fingerprint = 0;
  bool fingerprint_invariant = false;
};

size_t TraceEmSweeps(const FitReport& report) {
  size_t sweeps = 0;
  for (const OuterIterationRecord& record : report.trace) {
    sweeps += record.em_iterations;
  }
  return sweeps;
}

// Total EM sweeps a cold fit paid: the traced per-outer-iteration sweeps
// plus the best-of-seeds initialization (num_init_seeds x init_em_steps
// EM sweeps over the same dataset) that a warm-started refit never runs.
size_t ColdFitEmSweeps(const FitReport& report, const GenClusConfig& config) {
  return TraceEmSweeps(report) +
         config.num_init_seeds * config.init_em_steps;
}

GenClusConfig MakeConfig(uint64_t seed) {
  GenClusConfig config;
  config.num_clusters = 4;
  // Paper §5.2.1 weather settings: 5 outer iterations, best tentative
  // seed as the starting point.
  config.outer_iterations = 5;
  config.em_iterations = 40;
  config.num_init_seeds = 5;
  config.init_em_steps = 5;
  config.seed = seed;
  return config;
}

void WriteJson(const std::string& path, const std::string& fixture,
               const std::vector<Cell>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"refit\",\n");
  std::fprintf(f, "  \"fixture\": \"%s\",\n", fixture.c_str());
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        f,
        "    {\"base_nodes\": %zu, \"full_nodes\": %zu, "
        "\"full_nmi\": %.4f, \"refit_nmi\": %.4f, "
        "\"full_em_sweeps\": %zu, \"refit_em_sweeps\": %zu, "
        "\"sweep_ratio\": %.3f, "
        "\"full_seconds\": %.3f, \"refit_seconds\": %.3f, "
        "\"refit_fingerprint\": \"%016llx\", "
        "\"fingerprint_invariant\": %s}%s\n",
        c.base_nodes, c.full_nodes, c.full_nmi, c.refit_nmi,
        c.full_em_sweeps, c.refit_em_sweeps, c.sweep_ratio, c.full_seconds,
        c.refit_seconds,
        static_cast<unsigned long long>(c.refit_fingerprint),
        c.fingerprint_invariant ? "true" : "false",
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const bool small = flags.GetBool("small", false);
  const std::string out = flags.GetString("out", "BENCH_refit.json");
  const uint64_t data_seed =
      static_cast<uint64_t>(flags.GetInt("data-seed", 11));
  const uint64_t fit_seed = static_cast<uint64_t>(flags.GetInt("seed", 17));

  const size_t num_temperature = small ? 250 : 1000;
  const std::vector<size_t> precipitation_sizes =
      small ? std::vector<size_t>{120} : std::vector<size_t>{250, 500};
  // The base network has every temperature sensor but only this share of
  // the precipitation sensors; the rest arrives as the delta (a nightly
  // deployment batch, not a re-bootstrap).
  const double deployed_fraction = 0.8;

  PrintHeader("refit: warm-start maintenance vs from-scratch fit");
  PrintRow({"nodes", "nmi_full", "nmi_refit", "sweeps", "ratio",
            "speedup"});

  std::vector<Cell> cells;
  bool gates_ok = true;
  for (size_t num_p : precipitation_sizes) {
    WeatherConfig wconfig = WeatherConfig::Setting1();
    wconfig.num_temperature_sensors = num_temperature;
    wconfig.num_precipitation_sensors = num_p;
    wconfig.observations_per_sensor = 5;
    wconfig.seed = data_seed;
    auto data = GenerateWeatherNetwork(wconfig);
    if (!data.ok()) {
      std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
      return 1;
    }
    const size_t full_nodes = data->dataset.network.num_nodes();
    const size_t base_nodes =
        num_temperature +
        static_cast<size_t>(static_cast<double>(num_p) * deployed_fraction);

    NetworkDelta deployment;
    auto base = SliceDatasetPrefix(data->dataset, base_nodes, &deployment);
    if (!base.ok()) {
      std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
      return 1;
    }

    FitOptions fit_options;
    fit_options.attributes = {"temperature", "precipitation"};
    fit_options.config = MakeConfig(fit_seed);

    auto base_fit = Engine::Fit(*base, fit_options);
    if (!base_fit.ok()) {
      std::fprintf(stderr, "%s\n", base_fit.status().ToString().c_str());
      return 1;
    }
    auto full_fit = Engine::Fit(data->dataset, fit_options);
    if (!full_fit.ok()) {
      std::fprintf(stderr, "%s\n", full_fit.status().ToString().c_str());
      return 1;
    }

    RefitOptions refit_options;
    refit_options.config = fit_options.config;
    // A warm refresh does not repeat the from-scratch schedule: the base
    // model already carries the converged gamma and most Theta rows, so
    // two outer iterations absorb the delta. The NMI gate below verifies
    // the short schedule is actually enough.
    refit_options.config.outer_iterations = 2;
    auto refit = Engine::Refit(data->dataset, base_fit->model,
                               refit_options);
    if (!refit.ok()) {
      std::fprintf(stderr, "%s\n", refit.status().ToString().c_str());
      return 1;
    }

    Cell cell;
    cell.base_nodes = base_nodes;
    cell.full_nodes = full_nodes;
    cell.full_nmi =
        OverallNmi(full_fit->model.HardLabels(), data->dataset.labels);
    cell.refit_nmi =
        OverallNmi(refit->model.HardLabels(), data->dataset.labels);
    cell.full_em_sweeps =
        ColdFitEmSweeps(full_fit->report, fit_options.config);
    cell.refit_em_sweeps = TraceEmSweeps(refit->report);
    cell.sweep_ratio =
        cell.full_em_sweeps > 0
            ? static_cast<double>(cell.refit_em_sweeps) /
                  static_cast<double>(cell.full_em_sweeps)
            : 0.0;
    cell.full_seconds = full_fit->report.total_seconds;
    cell.refit_seconds = refit->report.total_seconds;
    cell.refit_fingerprint = refit->model.Fingerprint();

    // The warm refit must not depend on the execution geometry: same
    // fingerprint for every thread x shard combination.
    cell.fingerprint_invariant = true;
    for (size_t threads : {1u, 2u}) {
      for (size_t shards : {1u, 2u}) {
        RefitOptions sharded = refit_options;
        sharded.config.num_threads = threads;
        sharded.config.theta_shards = shards;
        auto again = Engine::Refit(data->dataset, base_fit->model, sharded);
        if (!again.ok()) {
          std::fprintf(stderr, "%s\n", again.status().ToString().c_str());
          return 1;
        }
        // theta_shards is serving metadata stamped from the config;
        // normalize it so the fingerprint compares only learned state.
        Model normalized = std::move(again->model);
        normalized.theta_shards = refit->model.theta_shards;
        if (normalized.Fingerprint() != cell.refit_fingerprint) {
          std::fprintf(stderr,
                       "FAIL: refit fingerprint drifts at %zu threads x "
                       "%zu shards\n",
                       threads, shards);
          cell.fingerprint_invariant = false;
        }
      }
    }

    if (cell.refit_nmi < cell.full_nmi - 0.01) {
      std::fprintf(stderr,
                   "FAIL: warm refit NMI %.4f below cold fit %.4f - 0.01 "
                   "at %zu nodes\n",
                   cell.refit_nmi, cell.full_nmi, full_nodes);
      gates_ok = false;
    }
    if (cell.refit_em_sweeps * 2 > cell.full_em_sweeps) {
      std::fprintf(stderr,
                   "FAIL: warm refit spent %zu EM sweeps, more than 50%% "
                   "of the cold fit's %zu at %zu nodes\n",
                   cell.refit_em_sweeps, cell.full_em_sweeps, full_nodes);
      gates_ok = false;
    }
    if (!cell.fingerprint_invariant) gates_ok = false;

    PrintRow({StrFormat("%zu->%zu", base_nodes, full_nodes),
              Fmt(cell.full_nmi), Fmt(cell.refit_nmi),
              StrFormat("%zu/%zu", cell.refit_em_sweeps,
                        cell.full_em_sweeps),
              StrFormat("%.2f", cell.sweep_ratio),
              StrFormat("%.1fx", cell.refit_seconds > 0.0
                                     ? cell.full_seconds /
                                           cell.refit_seconds
                                     : 0.0)});
    cells.push_back(cell);
  }

  WriteJson(out, small ? "weather_s1_small" : "weather_s1", cells);
  std::printf("\nwrote %s\n", out.c_str());
  if (!gates_ok) return 1;
  return 0;
}
