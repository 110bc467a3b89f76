// The repository benchmark. One workload per process: a fixture made from
// the seed is fitted, served and refreshed through the library's public
// API, every output is checked, and one JSON object with the metrics is
// printed as the last line of standard output.
//
//   perfbench --workload acp|weather --seed N --seconds S --trace 0|1
//             --pins FILE [--work-dir DIR] [--trace-out FILE]
//             [--scale full|tiny] [--print-fingerprint]
//
// Phases (the budget S is split between the timed ones):
//   setup    LoadDataset of the generated input file, then
//            LoadModelBinary + Server::Create + the first answer (x5).
//   fit      the first Engine::Fit, whose model is served and grown;
//            --trace 1 also replays Algorithm 1 through the layer calls
//            with a span around each.
//   rounds   ten of them, each: one more LoadDataset; more fits, spread
//            over the rounds; a light phase (open-loop Poisson arrivals
//            at a fixed rate into a Server with default options, latency
//            from each request's due time to its future reading ready on
//            the client's clock); a heavy phase (closed loop,
//            a fixed number of queries outstanding); Engine::InferBatch
//            passes over the query pool; a refresh segment (the
//            run's one maintenance thread streams the next held-back objects
//            through ApplyUpdates and publishes through SaveModelBinary ->
//            LoadModelBinary -> SwapModel, every other round after a warm
//            Engine::Refit, while the light stream keeps reading).
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The end-to-end times are on-CPU times (src/cpuclock.h), each scaled by
// the calibration passes taken around it (src/calibrate.h): on a shared
// host the wall-clock figures of the same code spread by more than any
// bound, and the raw on-CPU ones drift with the host's speed.
// Exit status: 0 when every check passed, 1 when a check failed (the JSON
// line is still printed), 2 on a usage, build or input error (no JSON).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/em.h"
#include "core/engine.h"
#include "core/init.h"
#include "core/model_io.h"
#include "core/objective.h"
#include "core/server.h"
#include "core/strength.h"
#include "core/update.h"
#include "eval/nmi.h"
#include "hin/io.h"
#include "linalg/spmm.h"
#include "src/calibrate.h"
#include "src/cpuclock.h"
#include "src/fixture.h"
#include "src/openloop.h"
#include "src/stats.h"
#include "src/trace.h"

namespace perfbench {
namespace {

using namespace genclus;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 1;
// Open-loop arrival rate of the light stream and the closed-loop window of
// the heavy phase (256 queries outstanding).
constexpr double kLightRate = 20000.0;
constexpr size_t kHeavyBatches = 4;
constexpr size_t kHeavyBatch = 64;
constexpr double kHeavySliceSeconds = 0.1;
constexpr size_t kSetupReps = 5;
// Engine::InferBatch passes over the query pool per round.
constexpr size_t kInferPasses = 10;
// The timed phases run in this many rounds (fit, light, heavy, a refresh
// segment), so a host stall of a few seconds lands in one round's samples
// and the medians over rounds ignore it.
constexpr size_t kRounds = 10;
// Deltas applied between two model publishes in a refresh segment.
constexpr size_t kDeltasPerPublish = 10;
// (traced replay, untraced Engine::Fit) pairs whose median time ratio is
// trace.overhead.
constexpr size_t kOverheadPairs = 3;
// Requests per stream whose submit and answer spans are written to the
// trace file (every request is still timed).
constexpr size_t kTracedRequests = 10000;
// Shares of --seconds given to the timed phases, split evenly over the
// rounds; the refresh phase is a fixed amount of work (the whole delta
// stream and a refit every other round).
constexpr double kFitShare = 0.5;
constexpr double kLightShare = 0.12;
constexpr double kHeavyShare = 0.12;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string pins;
  std::string trace_out;
  Scale scale = Scale::kFull;
  bool print_fingerprint = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-fingerprint") {
      args->print_fingerprint = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--pins") {
      args->pins = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") return false;
      args->scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 &&
         (args->scale != Scale::kFull || !args->pins.empty() ||
          args->print_fingerprint);
}

// Refuses to measure anything but an optimized build with failpoints and
// sanitizers compiled out.
bool BuildIsMeasurable(std::string* why) {
#ifndef NDEBUG
  *why = "NDEBUG is not defined (assertions are on)";
  return false;
#endif
#ifdef GENCLUS_FAILPOINTS
  *why = "failpoints are compiled in";
  return false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "a sanitizer is compiled in";
  return false;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    *why = std::string("build type is ") + PERFBENCH_BUILD_TYPE;
    return false;
  }
  return true;
}

// Cache size in bytes of the given level as sysfs reports it for cpu0;
// 0 when unknown.
double CacheBytes(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_file(dir + "/level");
    std::ifstream type_file(dir + "/type");
    std::ifstream size_file(dir + "/size");
    int l = 0;
    std::string type, size;
    if (!(level_file >> l) || !(type_file >> type) || !(size_file >> size)) {
      continue;
    }
    if (l != level || type == "Instruction") continue;
    double bytes = std::atof(size.c_str());
    if (size.back() == 'K') bytes *= 1024.0;
    if (size.back() == 'M') bytes *= 1024.0 * 1024.0;
    return bytes;
  }
  return 0.0;
}

// Resets this process's peak-RSS mark (VmHWM) to its current RSS, so the
// peak read later covers only what follows.
void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  if (!out.flush()) Die("cannot reset the peak RSS mark");
}

// VmHWM of this process, in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kb = 0.0;
  while (status >> key) {
    if (key == "VmHWM:" && status >> kb) return kb / 1024.0;
  }
  Die("no VmHWM in /proc/self/status");
}

// Every correctness check and every attempted operation of the run.
class Ledger {
 public:
  // One operation (a fit, a query, an update, a publish, ...).
  void Op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  // One output check; a failed check also counts as a failed operation.
  // Each distinct failure is printed once.
  void Check(bool ok, const std::string& what) {
    Op(ok);
    if (!ok) {
      correct_ = false;
      if (reported_.insert(what).second) {
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
      }
    }
  }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  bool correct() const { return correct_; }

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
  bool correct_ = true;
  std::set<std::string> reported_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The context of one run: the inputs, the loaded dataset and the outputs.
struct Run {
  explicit Run(const Args& a) : args(a), tracer(a.trace) {}

  const Args args;
  Fixture fx;
  Tracer tracer;
  Ledger ledger;
  Calibrator calibrator;  // the main thread's
  std::unique_ptr<ParallelCalibrator> fit_calibrator;  // one per fit thread
  std::vector<Metric> metrics;
  std::string dataset_path;
  std::string model_path;
  Dataset dataset;  // as loaded from dataset_path
  uint64_t fit_fingerprint = 0;  // of the first fit; every fit must match
  // The server version now serving the fitted model, whose answers must
  // equal `reference`.
  uint64_t reference_version = 0;
  std::vector<std::vector<double>> reference;  // Engine::InferBatch answers

  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      ledger.Check(false, name + " is not finite");
      value = 0.0;
    }
    metrics.push_back({name, value, unit});
  }
};

template <typename T>
T Unwrap(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

double Nmi(const Model& model, const Dataset& dataset) {
  return NormalizedMutualInformation(model.HardLabels(),
                                     dataset.labels.raw());
}

bool SameDoubles(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

// ---------------------------------------------------------------- inputs

// Fingerprint, as 16 hex digits, of the inputs rebuilt at the default
// seed. It is taken at every seed, so every run's process has built the
// same inputs before it measures.
std::string PinnedFingerprint(const Run& run) {
  const std::string path = run.args.work_dir + "/" + run.args.workload +
                           "-pin.hin";
  const Fixture pinned = Unwrap(
      MakeFixture(run.args.workload, kDefaultSeed, run.args.scale), "pin");
  if (!SaveDataset(pinned.base, path).ok()) Die("cannot write " + path);
  const uint64_t fingerprint =
      Unwrap(InputFingerprint(pinned, path), "pin fingerprint");
  std::remove(path.c_str());
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return hex;
}

// Compares the fingerprint with the one pinned in --pins, so a change to
// the generators or the dataset writer cannot silently move the baseline.
void CheckPin(Run& run, const std::string& got) {
  std::ifstream in(run.args.pins);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const size_t at = text.find("\"" + run.args.workload + "\"");
  const size_t open =
      at == std::string::npos ? at : text.find('"', text.find(':', at) + 1);
  const size_t close =
      open == std::string::npos ? open : text.find('"', open + 1);
  if (close == std::string::npos) {
    Die("no pin for workload " + run.args.workload + " in '" +
        run.args.pins + "'");
  }
  const std::string pinned = text.substr(open + 1, close - open - 1);
  std::printf("inputs: fingerprint at seed %llu = %s (pinned %s)\n",
              static_cast<unsigned long long>(kDefaultSeed), got.c_str(),
              pinned.c_str());
  run.ledger.Check(pinned == got, "input fingerprint matches the pin");
}

void PrintWorkingSet(const Run& run) {
  const WorkingSet ws =
      ComputeWorkingSet(run.fx.base, run.fx.fit_config.num_clusters);
  const double mib = 1024.0 * 1024.0;
  std::printf(
      "working set (computed): theta %.1f MiB + csr %.1f MiB + observations "
      "%.1f MiB = %.1f MiB; L2 %.1f MiB per core, L3 %.1f MiB (sysfs)\n",
      ws.theta_bytes / mib, ws.csr_bytes / mib, ws.observation_bytes / mib,
      ws.total() / mib, CacheBytes(2) / mib, CacheBytes(3) / mib);
}

// ----------------------------------------------------------------- setup

// On-CPU seconds of LoadDataset calls on the main thread, as measured and
// scaled to the reference host.
struct LoadTimes {
  std::vector<double> cpu_s;
  std::vector<double> scaled_s;
};

// LoadDataset of the input file into `dataset`, between two calibration
// passes.
void TimedLoad(Run& run, Dataset* dataset, LoadTimes* times) {
  ScopedSpan span(&run.tracer, "hin.LoadDataset");
  double scaled = 0.0;
  times->cpu_s.push_back(CalibratedCpuSeconds(
      run.calibrator, ThreadCpuSeconds,
      [&] { *dataset = Unwrap(LoadDataset(run.dataset_path), "LoadDataset"); },
      &scaled));
  times->scaled_s.push_back(scaled);
}

// LoadModelBinary + Server::Create + the first answer, kSetupReps times,
// each between two calibration passes; returns the median on-CPU seconds
// of the process (the new workers included) scaled to the reference host,
// and keeps the last server.
double ServerSetupPhase(Run& run, std::unique_ptr<Server>* server) {
  std::vector<double> scaled_s;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    server->reset();
    ScopedSpan span(&run.tracer, "setup.server");
    bool ok = false;
    scaled_s.emplace_back();
    CalibratedCpuSeconds(
        run.calibrator, ProcessCpuSeconds,
        [&] {
          Model model =
              Unwrap(LoadModelBinary(run.model_path), "LoadModelBinary");
          *server = Unwrap(
              Server::Create(&run.dataset.network, std::move(model)),
              "Server::Create");
          auto first = (*server)->Submit(run.fx.queries[0]);
          ok = first.ok() && first->get().ok();
        },
        &scaled_s.back());
    run.ledger.Op(ok);
  }
  return Median(scaled_s);
}

// ------------------------------------------------------------------- fit

void CheckFit(Run& run, const Model& model) {
  const uint64_t fp = model.Fingerprint();
  if (run.fit_fingerprint == 0) run.fit_fingerprint = fp;
  run.ledger.Check(fp == run.fit_fingerprint,
                   "repeated fits give the same Model::Fingerprint()");
  const double nmi = Nmi(model, run.dataset);
  run.ledger.Check(nmi >= run.fx.nmi_floor,
                   "fit NMI " + std::to_string(nmi) + " >= floor");
  const std::vector<std::string>& order = run.fx.strength_order;
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    const LinkTypeId a = run.dataset.network.schema().FindLinkType(order[i]);
    const LinkTypeId b =
        run.dataset.network.schema().FindLinkType(order[i + 1]);
    run.ledger.Check(model.gamma[a] > model.gamma[b],
                     "learned strength " + order[i] + " > " + order[i + 1]);
  }
}

FitOptions MakeFitOptions(const Fixture& fx) {
  FitOptions options;
  options.attributes = fx.attributes;
  options.config = fx.fit_config;
  return options;
}

// Wall and on-CPU seconds (every thread of the process) of the fits; the
// on-CPU ones as measured and scaled to the reference host.
struct FitTimes {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> scaled_s;
};

// One timed, checked Engine::Fit, between two passes of the fit's
// calibration on as many threads as the fit runs. The server's workers and
// the maintenance thread are idle meanwhile, so the process's on-CPU time
// is the fit's.
Model TimedFit(Run& run, FitTimes* times) {
  std::optional<FitResult> fit;
  times->scaled_s.emplace_back();
  times->cpu_s.push_back(CalibratedCpuSeconds(
      *run.fit_calibrator, ProcessCpuSeconds,
      [&] {
        const Clock::time_point t = Clock::now();
        fit = Unwrap(Engine::Fit(run.dataset, MakeFitOptions(run.fx)),
                     "Engine::Fit");
        times->wall_s.push_back(SecondsSince(t));
      },
      &times->scaled_s.back()));
  run.ledger.Op(true);
  CheckFit(run, fit->model);
  return std::move(fit->model);
}

struct Replay {
  Matrix theta;
  std::vector<double> gamma;
  double wall_s = 0.0;
  double init_s = 0.0;
  double em_s = 0.0;
  double objective_s = 0.0;
  double learn_s = 0.0;
  std::vector<double> build_ms;
  size_t em_sweeps = 0;
  size_t newton_iters = 0;
};

std::vector<const Attribute*> ResolveAttributes(const Run& run) {
  std::vector<const Attribute*> attrs;
  for (const std::string& name : run.fx.attributes) {
    attrs.push_back(&run.dataset.attributes[run.dataset.FindAttribute(name)]);
  }
  return attrs;
}

// Algorithm 1 replayed through the public layer calls in GenClus::Run's
// order — best-of-seeds init, then per outer iteration EmOptimizer::Run
// (one shared EmWorkspace), G1Objective, StrengthLearner + Learn and the
// outer-tolerance test, then the final G1Objective — with a span around
// every call.
Replay ReplayFit(Run& run) {
  const GenClusConfig& config = run.fx.fit_config;
  const Network& network = run.dataset.network;
  const std::vector<const Attribute*> attrs = ResolveAttributes(run);
  std::unique_ptr<ThreadPool> pool;
  if (config.num_threads != 1) {
    pool = std::make_unique<ThreadPool>(config.num_threads);
  }
  Replay out;
  std::vector<AttributeComponents> components;
  ScopedSpan fit(&run.tracer, "fit.replay");
  Rng rng(config.seed);
  EmOptimizer optimizer(&network, attrs, &config, pool.get());
  EmWorkspace workspace;
  std::vector<double> gamma =
      config.initial_gamma.empty()
          ? std::vector<double>(network.schema().num_link_types(), 1.0)
          : config.initial_gamma;
  {
    ScopedSpan span(&run.tracer, "init.BestOfSeedsInit", fit.id());
    BestOfSeedsInit(optimizer, network, attrs, config, gamma, &rng,
                    &out.theta, &components);
    out.init_s = span.End();
  }
  for (size_t outer = 1; outer <= config.outer_iterations; ++outer) {
    ScopedSpan iteration(&run.tracer, "fit.outer", fit.id());
    {
      ScopedSpan span(&run.tracer, "em.Run", iteration.id());
      const EmStats stats =
          optimizer.Run(gamma, &out.theta, &components, &workspace);
      out.em_s += span.End();
      out.em_sweeps += stats.iterations;
    }
    {
      ScopedSpan span(&run.tracer, "objective.G1Objective", iteration.id());
      G1Objective(network, attrs, components, out.theta, gamma);
      out.objective_s += span.End();
    }
    if (!config.learn_strengths) continue;
    ScopedSpan build(&run.tracer, "strength.build", iteration.id());
    StrengthLearner learner(&network, &out.theta, &config, pool.get());
    out.build_ms.push_back(build.End() * 1e3);
    ScopedSpan learn(&run.tracer, "strength.Learn", iteration.id());
    StrengthStats stats;
    std::vector<double> next = learner.Learn(gamma, &stats);
    out.learn_s += learn.End();
    out.newton_iters += stats.iterations;
    double delta = 0.0;
    for (size_t r = 0; r < gamma.size(); ++r) {
      delta = std::max(delta, std::fabs(next[r] - gamma[r]));
    }
    gamma = std::move(next);
    if (outer > 1 && delta < config.outer_tolerance) break;
  }
  {
    ScopedSpan span(&run.tracer, "objective.G1Objective", fit.id());
    G1Objective(network, attrs, components, out.theta, gamma);
    out.objective_s += span.End();
  }
  out.gamma = std::move(gamma);
  out.wall_s = fit.End();
  return out;
}

template <typename F>
double MedianSeconds(size_t reps, F&& f) {
  std::vector<double> seconds;
  for (size_t i = 0; i < reps; ++i) {
    const Clock::time_point t = Clock::now();
    f();
    seconds.push_back(SecondsSince(t));
  }
  return Median(seconds);
}

bool SameIterate(const Replay& replay, const Model& model) {
  return replay.theta.rows() == model.theta.rows() &&
         replay.theta.cols() == model.theta.cols() &&
         SameDoubles(replay.theta.data().data(), model.theta.data().data(),
                     model.theta.data().size()) &&
         replay.gamma.size() == model.gamma.size() &&
         SameDoubles(replay.gamma.data(), model.gamma.data(),
                     model.gamma.size());
}

// Median over the replays of one of their per-layer times.
template <typename F>
double MedianOf(const std::vector<Replay>& replays, F&& field) {
  std::vector<double> values;
  for (const Replay& r : replays) values.push_back(field(r));
  return Median(values);
}

// Traced fit: an untraced Engine::Fit to warm up, then kOverheadPairs
// pairs of a traced replay and an untraced Engine::Fit — the reference the
// replay's Theta and wall time are compared with — in alternating order,
// then the layer probes at the fitted iterate.
Model TracedFitPhase(Run& run) {
  const FitOptions options = MakeFitOptions(run.fx);
  CheckFit(run, Unwrap(Engine::Fit(run.dataset, options), "Engine::Fit").model);
  run.ledger.Op(true);
  std::vector<Replay> replays;
  std::vector<double> overhead, fit_wall_s;
  bool bitwise = true;
  FitResult fit;
  for (size_t pair = 0; pair < kOverheadPairs; ++pair) {
    auto untraced = [&] {
      const Clock::time_point t = Clock::now();
      fit = Unwrap(Engine::Fit(run.dataset, options), "Engine::Fit");
      fit_wall_s.push_back(SecondsSince(t));
      run.ledger.Op(true);
      CheckFit(run, fit.model);
    };
    if (pair % 2 == 1) untraced();
    replays.push_back(ReplayFit(run));
    if (pair % 2 == 0) untraced();
    overhead.push_back(replays.back().wall_s / fit_wall_s.back() - 1.0);
    bitwise = bitwise && SameIterate(replays.back(), fit.model);
  }
  const Model& model = fit.model;
  if (!bitwise) {
    std::printf("trace: replay Theta differs from Engine::Fit; the fit "
                "breakdown is stale\n");
  }
  const GenClusConfig& config = run.fx.fit_config;
  const Network& network = run.dataset.network;
  const std::vector<const Attribute*> attrs = ResolveAttributes(run);
  const size_t num_numerical = static_cast<size_t>(std::count_if(
      attrs.begin(), attrs.end(), [](const Attribute* a) {
        return a->kind() == AttributeKind::kNumerical;
      }));
  const size_t candidates =
      config.num_init_seeds +
      (config.theta_init == ThetaInit::kRandomSeedsPlusKMeans &&
               num_numerical > 0
           ? 1
           : 0);
  // Sweep and Newton counts are the same in every replay (fixed work per
  // fit); times are medians over the replays.
  const Replay& first = replays.front();
  const double em_s = MedianOf(replays, [](const Replay& r) { return r.em_s; });
  std::vector<double> build_ms;
  for (const Replay& r : replays) {
    build_ms.insert(build_ms.end(), r.build_ms.begin(), r.build_ms.end());
  }
  run.Add("fit.wall_s", Median(fit_wall_s), "s");
  run.Add("trace.overhead", Median(overhead), "ratio");
  run.Add("trace.replay_bitwise", bitwise ? 1.0 : 0.0, "count");
  run.Add("init.s", MedianOf(replays, [](const Replay& r) { return r.init_s; }),
          "s");
  run.Add("init.sweeps",
          static_cast<double>(candidates * config.init_em_steps), "count");
  run.Add("em.s", em_s, "s");
  run.Add("em.sweeps", static_cast<double>(first.em_sweeps), "count");
  run.Add("em.sweep_ms",
          em_s * 1e3 / static_cast<double>(first.em_sweeps), "ms");
  run.Add("objective.s",
          MedianOf(replays, [](const Replay& r) { return r.objective_s; }),
          "s");
  run.Add("strength.build_ms", Median(build_ms), "ms");
  run.Add("strength.learn_s",
          MedianOf(replays, [](const Replay& r) { return r.learn_s; }), "s");
  run.Add("strength.newton_iters", static_cast<double>(first.newton_iters),
          "count");

  // Thread scaling of the two parallel layers at the fitted iterate,
  // through the common/thread_pool they run on: 1 vs 4 threads.
  ThreadPool pool4(4);
  {
    EmOptimizer serial(&network, attrs, &config, nullptr);
    EmOptimizer parallel(&network, attrs, &config, &pool4);
    Matrix theta1 = model.theta;
    Matrix theta4 = model.theta;
    std::vector<AttributeComponents> comp1 = model.components;
    std::vector<AttributeComponents> comp4 = model.components;
    EmWorkspace ws1, ws4;
    serial.Step(model.gamma, &theta1, &comp1, &ws1);
    parallel.Step(model.gamma, &theta4, &comp4, &ws4);
    const double t1 = MedianSeconds(
        3, [&] { serial.Step(model.gamma, &theta1, &comp1, &ws1); });
    const double t4 = MedianSeconds(
        3, [&] { parallel.Step(model.gamma, &theta4, &comp4, &ws4); });
    run.Add("em.speedup_4t", t1 / t4, "x");
  }
  {
    StrengthLearner serial(&network, &model.theta, &config, nullptr);
    StrengthLearner parallel(&network, &model.theta, &config, &pool4);
    const double t1 = MedianSeconds(5, [&] { serial.EvalAll(model.gamma); });
    const double t4 =
        MedianSeconds(5, [&] { parallel.EvalAll(model.gamma); });
    run.Add("strength.speedup_4t", t1 / t4, "x");
  }
  // One link-term pass: sum_r gamma_r W_r Theta over every relation's
  // out-CSR at the fitted Theta, serial, as the EM sweep computes it.
  {
    const size_t n = network.num_nodes();
    const size_t k = model.num_clusters();
    std::vector<double> out(n * k, 0.0);
    double nnz = 0.0;
    double bytes = 0.0;
    const size_t relations = network.schema().num_link_types();
    const double pass_s = MedianSeconds(5, [&] {
      nnz = 0.0;
      bytes = 0.0;
      for (size_t r = 0; r < relations; ++r) {
        const RelationCsr csr = network.OutCsr(static_cast<LinkTypeId>(r));
        const CsrMatrixView view{csr.row_offsets, csr.neighbors, csr.weights};
        SpmmAccumulate(view, model.gamma[r], model.theta.data().data(), k, 0,
                       n, out.data());
        const double z = static_cast<double>(csr.nnz());
        nnz += z;
        // Offsets, column ids and weights streamed once; one K-wide Θ row
        // gathered per non-zero; the output rows read and written.
        bytes += static_cast<double>(n + 1) * sizeof(size_t) +
                 z * (sizeof(NodeId) + sizeof(double)) +
                 z * static_cast<double>(k) * sizeof(double) +
                 2.0 * static_cast<double>(n * k) * sizeof(double);
      }
    });
    run.Add("spmm.pass_ms", pass_s * 1e3, "ms");
    run.Add("spmm.nnz", nnz, "count");
    run.Add("spmm.gbps_computed", bytes / pass_s / 1e9, "GB/s");
  }
  return std::move(fit.model);
}

// --------------------------------------------------------------- serving

// True when `answer` came from the fitted model and equals
// Engine::InferBatch's answer to the same query bitwise.
bool SameAsReference(const Run& run, size_t query, const QueryResult& answer) {
  const size_t k = run.fx.fit_config.num_clusters;
  return answer.model_version == run.reference_version &&
         answer.membership.size() == k &&
         SameDoubles(answer.membership.data(), run.reference[query].data(), k);
}

struct StreamResult {
  std::vector<double> latency_us;  // due time -> future seen ready
  std::vector<double> lag_us;      // send time - due time
  std::vector<double> submit_us;   // the Submit call
  size_t submitted = 0;
  size_t refused = 0;
  size_t completed = 0;
  size_t failed = 0;
  std::vector<uint64_t> versions;  // model_version of each answer
};

// Sends a query from the pool at each due time of a Poisson schedule until
// `stop` says so, polling the outstanding futures between sends; then
// collects every answer. A request's latency runs from its due time to the
// client's first reading of its future as ready. `check_reference`
// compares each answer bitwise with Engine::InferBatch on the same query.
template <typename Stop>
StreamResult LightStream(Run& run, Server& server, uint64_t seed, Stop&& stop,
                         bool check_reference) {
  StreamResult out;
  ReadyWatch<QueryResult> watch;
  watch.Reserve(static_cast<size_t>(kLightRate * run.args.seconds /
                                    static_cast<double>(kRounds)));
  SteadyPacer pacer;
  ArrivalSchedule schedule(kLightRate, seed);
  const size_t pool = run.fx.queries.size();
  const int64_t origin = run.tracer.ToNs(pacer.start());
  const OpenLoopResult loop = RunOpenLoop(
      pacer, schedule, stop, [&] { return watch.Poll(pacer); },
      [&](size_t i, int64_t due, int64_t now) {
        auto submitted = server.Submit(run.fx.queries[i % pool]);
        const int64_t after = pacer.NowNs();
        out.submit_us.push_back(static_cast<double>(after - now) / 1e3);
        if (i < kTracedRequests) {
          run.tracer.Add("server.Submit", origin + now, origin + after, -1,
                         static_cast<int64_t>(i));
        }
        if (!submitted.ok()) {
          ++out.refused;
          return;
        }
        watch.Add(std::move(submitted).value(), due, now, i);
      });
  watch.Drain(pacer);
  out.submitted = loop.sent;
  out.lag_us = loop.lag_us;
  for (auto& e : watch.entries()) {
    const QueryResult answer = e.future.get();
    if (!answer.ok()) {
      ++out.failed;
      run.ledger.Op(false);
      continue;
    }
    ++out.completed;
    run.ledger.Op(true);
    out.versions.push_back(answer.model_version);
    out.latency_us.push_back(static_cast<double>(e.ready_ns - e.due_ns) /
                             1e3);
    if (e.request < kTracedRequests) {
      run.tracer.Add("server.answer", origin + e.send_ns, origin + e.ready_ns,
                     -1, static_cast<int64_t>(e.request));
    }
    if (check_reference && !SameAsReference(run, e.request % pool, answer)) {
      run.ledger.Check(false, "served answer equals Engine::InferBatch");
    }
  }
  return out;
}

struct HeavyResult {
  std::vector<double> slice_qps;  // answers per second of each slice
  double batches = 0.0;           // micro-batches executed
  double queries = 0.0;           // queries in those batches
};

void AddBatches(const ServerStats& before, const ServerStats& after,
                HeavyResult* out) {
  for (size_t s = 1; s < after.batch_size_histogram.size(); ++s) {
    const double d = static_cast<double>(after.batch_size_histogram[s] -
                                         before.batch_size_histogram[s]);
    out->batches += d;
    out->queries += d * static_cast<double>(s);
  }
}

// Closed loop for `budget_s`: kHeavyBatches SubmitBatch calls of
// kHeavyBatch queries each stay outstanding (kHeavyBatches x kHeavyBatch
// queries in the tier); answers are timed per slice of
// kHeavySliceSeconds.
void HeavyPhase(Run& run, Server& server, double budget_s, HeavyResult* out) {
  const ServerStats before = server.Stats();
  const size_t pool = run.fx.queries.size();
  struct Outstanding {
    std::future<InferenceResult> future;
    size_t first_query = 0;
  };
  std::deque<Outstanding> window;
  size_t next = 0;
  auto submit = [&] {
    std::vector<NewObjectQuery> batch;
    batch.reserve(kHeavyBatch);
    const size_t first = next % pool;
    for (size_t i = 0; i < kHeavyBatch; ++i) {
      batch.push_back(run.fx.queries[next++ % pool]);
    }
    window.push_back({server.SubmitBatch(std::move(batch)), first});
  };
  auto collect = [&] {
    Outstanding o = std::move(window.front());
    window.pop_front();
    const InferenceResult result = o.future.get();
    const size_t k = run.fx.fit_config.num_clusters;
    for (size_t i = 0; i < kHeavyBatch; ++i) {
      const size_t q = (o.first_query + i) % pool;
      const bool ok = result.statuses[i].ok();
      run.ledger.Op(ok);
      if (ok && !(result.model_versions[i] == run.reference_version &&
                  SameDoubles(result.memberships.Row(i),
                              run.reference[q].data(), k))) {
        run.ledger.Check(false, "served answer equals Engine::InferBatch");
      }
    }
  };
  for (size_t i = 0; i < kHeavyBatches; ++i) submit();
  ScopedSpan span(&run.tracer, "serve.heavy");
  const Clock::time_point start = Clock::now();
  Clock::time_point slice_start = start;
  size_t slice_completed = 0;
  while (SecondsSince(start) < budget_s) {
    collect();
    submit();
    slice_completed += kHeavyBatch;
    const double slice_s = SecondsSince(slice_start);
    if (slice_s >= kHeavySliceSeconds) {
      out->slice_qps.push_back(static_cast<double>(slice_completed) /
                               slice_s);
      slice_start = Clock::now();
      slice_completed = 0;
    }
  }
  span.End();
  while (!window.empty()) collect();
  AddBatches(before, server.Stats(), out);
}

// kInferPasses passes of Engine::InferBatch over the whole query pool in
// batches of the server's max_batch, while the server is idle, between
// two calibration passes. A one-threaded engine runs them on this thread.
// Returns the on-CPU microseconds per query, as measured and (in
// *scaled_us) scaled to the reference host; every answer must equal the
// reference bitwise.
double InferRound(Run& run, const Engine& engine, double* scaled_us) {
  const std::span<const NewObjectQuery> queries(run.fx.queries);
  std::vector<std::vector<Result<std::vector<double>>>> answers(kInferPasses);
  double scaled = 0.0;
  const double seconds = CalibratedCpuSeconds(
      run.calibrator, ThreadCpuSeconds,
      [&] {
        for (auto& pass : answers) {
          pass.reserve(queries.size());
          for (size_t first = 0; first < queries.size();
               first += kHeavyBatch) {
            auto batch = engine.InferBatch(queries.subspan(
                first, std::min(kHeavyBatch, queries.size() - first)));
            std::move(batch.begin(), batch.end(), std::back_inserter(pass));
          }
        }
      },
      &scaled);
  const size_t k = run.fx.fit_config.num_clusters;
  for (const auto& pass : answers) {
    for (size_t q = 0; q < pass.size(); ++q) {
      const bool ok = pass[q].ok() && pass[q]->size() == k &&
                      SameDoubles(pass[q]->data(), run.reference[q].data(), k);
      run.ledger.Op(ok);
      if (!ok) run.ledger.Check(false, "InferBatch answer equals the reference");
    }
  }
  const double per_query = 1e6 / static_cast<double>(kInferPasses *
                                                     queries.size());
  *scaled_us = scaled * per_query;
  return seconds * per_query;
}

// --------------------------------------------------------------- refresh

// The maintenance side of the refresh phase, carried across rounds: the
// grown dataset and the updated model (the server keeps planning on the
// base network), and what every call cost.
struct Maintenance {
  Dataset dataset;
  Model model;
  Calibrator calibrator;  // the maintenance thread's
  size_t next_delta = 0;
  // On-CPU time of each ApplyUpdates call, as measured and scaled to the
  // reference host.
  std::vector<double> update_ms;
  std::vector<double> update_scaled_ms;
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  std::vector<double> swap_ms;
  std::vector<double> refit_s;
  std::vector<uint64_t> published;  // model versions the benchmark served
  size_t touched = 0;
  size_t new_nodes = 0;
  double model_mb = 0.0;
  double refit_nmi = 0.0;
  size_t refit_em_sweeps = 0;
  size_t ops = 0;
  size_t failed_ops = 0;
  std::string error;
};

// SaveModelBinary -> LoadModelBinary -> SwapModel.
bool Publish(Run& run, Server& server, const Model& model, Maintenance* m) {
  const std::string path = run.model_path + ".publish";
  {
    ScopedSpan span(&run.tracer, "model_io.SaveModelBinary", -1, 1);
    if (!SaveModelBinary(model, path).ok()) return false;
    m->save_ms.push_back(span.End() * 1e3);
  }
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  m->model_mb = static_cast<double>(file.tellg()) / (1024.0 * 1024.0);
  Result<Model> loaded = [&] {
    ScopedSpan span(&run.tracer, "model_io.LoadModelBinary", -1, 1);
    Result<Model> r = LoadModelBinary(path);
    m->load_ms.push_back(span.End() * 1e3);
    return r;
  }();
  if (!loaded.ok()) return false;
  ScopedSpan span(&run.tracer, "server.SwapModel", -1, 1);
  const Status swapped = server.SwapModel(std::move(loaded).value());
  m->swap_ms.push_back(span.End() * 1e3);
  if (!swapped.ok()) return false;
  m->published.push_back(server.model_version());
  return true;
}

// Applies the deltas up to `end`, publishing every kDeltasPerPublish;
// then, when `refit`, one warm Engine::Refit on the grown dataset, which
// is published too.
void MaintenanceLoop(Run& run, Server& server, size_t end, bool refit,
                     Maintenance* m) {
  const std::vector<NetworkDelta>& deltas = run.fx.deltas;
  for (; m->next_delta < end; ++m->next_delta) {
    const size_t i = m->next_delta;
    ScopedSpan span(&run.tracer, "update.ApplyUpdates", -1, 1);
    std::optional<Result<UpdateReport>> report;
    double scaled = 0.0;
    const double seconds = CalibratedCpuSeconds(
        m->calibrator, ThreadCpuSeconds,
        [&] {
          report = ApplyUpdates(&m->dataset, &m->model,
                                std::span<const NetworkDelta>(&deltas[i], 1));
        },
        &scaled);
    m->update_ms.push_back(seconds * 1e3);
    m->update_scaled_ms.push_back(scaled * 1e3);
    ++m->ops;
    if (!report->ok()) {
      ++m->failed_ops;
      m->error = report->status().ToString();
      return;
    }
    m->touched += (*report)->touched_nodes;
    m->new_nodes += (*report)->new_nodes;
    if ((i + 1) % kDeltasPerPublish == 0) {
      ++m->ops;
      if (!Publish(run, server, m->model, m)) ++m->failed_ops;
    }
  }
  if (!refit) return;
  RefitOptions options;
  options.config = run.fx.fit_config;
  options.config.outer_iterations = 2;
  options.config.num_threads = 1;
  ScopedSpan span(&run.tracer, "core.Engine::Refit", -1, 1);
  Result<FitResult> refitted = Engine::Refit(m->dataset, m->model, options);
  m->refit_s.push_back(span.End());
  ++m->ops;
  if (!refitted.ok()) {
    ++m->failed_ops;
    m->error = refitted.status().ToString();
    return;
  }
  m->refit_nmi = Nmi(refitted->model, m->dataset);
  m->refit_em_sweeps = 0;
  for (const OuterIterationRecord& record : refitted->report.trace) {
    m->refit_em_sweeps += record.em_iterations;
  }
  ++m->ops;
  if (!Publish(run, server, refitted->model, m)) ++m->failed_ops;
}

// The refresh phase's writer: one thread for the whole run, as a
// long-lived maintenance thread would be. Each refresh segment hands it
// the deltas up to `end` (and, when `refit`, a warm refit) and reads until
// it has finished them.
class MaintenanceThread {
 public:
  MaintenanceThread(Run& run, Server& server, Maintenance* m)
      : thread_([this, &run, &server, m] { Serve(run, server, m); }) {}

  ~MaintenanceThread() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      quit_ = true;
    }
    wake_.notify_one();
    thread_.join();
  }

  void Start(size_t end, bool refit) {
    std::lock_guard<std::mutex> lock(mutex_);
    end_ = end;
    refit_ = refit;
    pending_ = true;
    busy_.store(true);
    wake_.notify_one();
  }

  bool busy() const { return busy_.load(); }

 private:
  void Serve(Run& run, Server& server, Maintenance* m) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      wake_.wait(lock, [this] { return pending_ || quit_; });
      if (quit_) return;
      pending_ = false;
      const size_t end = end_;
      const bool refit = refit_;
      lock.unlock();
      try {
        MaintenanceLoop(run, server, end, refit, m);
      } catch (const std::exception& e) {
        m->error = e.what();
        ++m->failed_ops;
      }
      lock.lock();
      busy_.store(false);
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  bool pending_ = false;
  bool quit_ = false;
  size_t end_ = 0;
  bool refit_ = false;
  std::atomic<bool> busy_{false};
  std::thread thread_;  // last, so it starts after the members above
};

// One refresh segment: the maintenance thread applies the deltas up to
// `end` (and, when `refit`, a warm refit) while the light stream reads
// from this thread. Checks every answer's model version and the
// client/server accounting of the segment; returns the reads.
StreamResult RefreshSegment(Run& run, Server& server,
                            MaintenanceThread& maintenance, size_t end,
                            bool refit, uint64_t seed, Maintenance* m) {
  const ServerStats before = server.Stats();
  maintenance.Start(end, refit);
  StreamResult reads = LightStream(
      run, server, seed, [&](int64_t) { return !maintenance.busy(); }, false);
  size_t unknown = 0;
  for (uint64_t v : reads.versions) {
    if (std::find(m->published.begin(), m->published.end(), v) ==
        m->published.end()) {
      ++unknown;
    }
  }
  run.ledger.Check(unknown == 0,
                   "every answer's model_version was published");
  const ServerStats after = server.Stats();
  const size_t admitted = (after.accepted + after.rejected +
                           after.deadline_rejected) -
                          (before.accepted + before.rejected +
                           before.deadline_rejected);
  const size_t resolved = (after.completed + after.cancelled +
                           after.deadline_shed) -
                          (before.completed + before.cancelled +
                           before.deadline_shed);
  run.ledger.Check(
      reads.submitted == reads.completed + reads.failed + reads.refused,
      "submitted = completed + failed + refused");
  run.ledger.Check(admitted == reads.submitted &&
                       resolved + reads.refused == reads.submitted,
                   "server accounting matches the client's");
  return reads;
}

// Counts the maintenance calls into the ledger and checks the refit.
void CheckMaintenance(Run& run, const Maintenance& m) {
  for (size_t i = 0; i < m.ops; ++i) run.ledger.Op(i >= m.failed_ops);
  if (!m.error.empty()) {
    std::fprintf(stderr, "maintenance: %s\n", m.error.c_str());
  }
  run.ledger.Check(m.failed_ops == 0 && m.next_delta == run.fx.deltas.size(),
                   "every maintenance call succeeded");
  run.ledger.Check(m.refit_nmi >= run.fx.nmi_floor,
                   "refit NMI " + std::to_string(m.refit_nmi) + " >= floor");
}

// ------------------------------------------------------------- per layer

// Layer probes that need the served model: Engine::Plan/Execute per query
// at batch 1 and at the heavy phase's mean batch, and ApplyNetworkDelta
// alone on the refresh deltas.
void LayerProbes(Run& run, const Model& model, double mean_batch,
                 double light_p50_us, const Maintenance& m) {
  Engine engine = Unwrap(
      Engine::Create(&run.dataset.network, model, EngineOptions{1}),
      "Engine::Create");
  const std::vector<NewObjectQuery>& queries = run.fx.queries;
  auto per_query = [&](size_t batch, size_t reps, double* plan_us,
                       double* exec_us) {
    std::vector<double> plan, exec;
    std::vector<NewObjectQuery> slice(batch);
    for (size_t i = 0; i < reps; ++i) {
      for (size_t j = 0; j < batch; ++j) {
        slice[j] = queries[(i * batch + j) % queries.size()];
      }
      const Clock::time_point t0 = Clock::now();
      const InferPlan p = engine.Plan(slice);
      const Clock::time_point t1 = Clock::now();
      const InferenceResult r = engine.Execute(p);
      const Clock::time_point t2 = Clock::now();
      plan.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      exec.push_back(std::chrono::duration<double, std::micro>(t2 - t1).count());
    }
    *plan_us = Median(plan) / static_cast<double>(batch);
    *exec_us = Median(exec) / static_cast<double>(batch);
  };
  double plan_b1 = 0.0, exec_b1 = 0.0, plan_bm = 0.0, exec_bm = 0.0;
  per_query(1, 4000, &plan_b1, &exec_b1);
  const size_t batch = std::max<size_t>(1, static_cast<size_t>(
                                               std::lround(mean_batch)));
  per_query(batch, std::max<size_t>(50, 4000 / batch), &plan_bm, &exec_bm);
  run.Add("inference.plan_us_b1", plan_b1, "us");
  run.Add("inference.exec_us_b1", exec_b1, "us");
  run.Add("inference.plan_us_bmean", plan_bm, "us");
  run.Add("inference.exec_us_bmean", exec_bm, "us");
  run.Add("server.tier_us", light_p50_us - plan_b1 - exec_b1, "us");

  std::vector<double> apply_ms;
  Dataset grown = run.dataset;
  for (const NetworkDelta& delta : run.fx.deltas) {
    ScopedSpan span(&run.tracer, "hin.ApplyNetworkDelta");
    const double cpu = ThreadCpuSeconds();
    grown = Unwrap(ApplyNetworkDelta(grown, delta), "ApplyNetworkDelta");
    apply_ms.push_back((ThreadCpuSeconds() - cpu) * 1e3);
  }
  run.Add("hin.apply_delta_ms", Median(apply_ms), "ms");
  run.Add("update.foldin_ms", Median(m.update_ms) - Median(apply_ms), "ms");
  run.Add("update.touched_per_new",
          static_cast<double>(m.touched) / static_cast<double>(m.new_nodes),
          "ratio");
  run.Add("refit.s", Median(m.refit_s), "s");
  run.Add("refit.em_sweeps", static_cast<double>(m.refit_em_sweeps),
          "count");
  run.Add("refit.nmi", m.refit_nmi, "ratio");
  run.Add("model_io.save_ms", Median(m.save_ms), "ms");
  run.Add("model_io.load_ms", Median(m.load_ms), "ms");
  run.Add("model_io.mb", m.model_mb, "MB");
  run.Add("server.swap_ms", Median(m.swap_ms), "ms");
}

// ---------------------------------------------------------------- output

void PrintResult(const Run& run) {
  std::string json = "{\"correct\": ";
  json += run.ledger.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.ledger.attempted());
  json += ", \"failed\": " + std::to_string(run.ledger.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintTable(const Run& run) {
  for (const Metric& m : run.metrics) {
    std::printf("  %-26s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Args parsed;
  if (!ParseArgs(argc, argv, &parsed)) {
    Die("usage: perfbench --workload acp|weather --seed N --seconds S "
        "--trace 0|1 --pins FILE [--work-dir DIR] [--trace-out FILE] "
        "[--scale full|tiny] [--print-fingerprint]; --pins is required at "
        "full scale");
  }
  Run run(parsed);
  const Args& args = run.args;
  std::string why;
  if (!BuildIsMeasurable(&why)) Die("refusing to measure: " + why);
  std::printf("build: %s, %s, flags \"%s\"; nproc %u\n", PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, PERFBENCH_FLAGS,
              std::thread::hardware_concurrency());

  // Inputs. The peak-RSS mark is reset once they are built, so
  // peak_rss_mb covers set-up and the timed phases.
  const std::string pin = PinnedFingerprint(run);
  if (args.print_fingerprint) {
    std::printf("%s\n", pin.c_str());
    return 0;
  }
  if (args.scale == Scale::kFull) CheckPin(run, pin);  // pins: full scale
  run.fx = Unwrap(MakeFixture(args.workload, args.seed, args.scale),
                  "MakeFixture");
  const std::string stem = args.work_dir + "/" + args.workload + "-" +
                           std::to_string(args.seed);
  run.dataset_path = stem + ".hin";
  run.model_path = stem + ".model";
  if (!SaveDataset(run.fx.base, run.dataset_path).ok()) {
    Die("cannot write " + run.dataset_path);
  }
  PrintWorkingSet(run);
  run.fx.base = Dataset();  // loaded back from the file below
  run.fit_calibrator = std::make_unique<ParallelCalibrator>(
      run.fx.fit_config.num_threads);
  ResetPeakRss();
  const double budget = args.seconds;

  // Setup, then the first fit: its model is the one served and grown.
  LoadTimes loads;
  TimedLoad(run, &run.dataset, &loads);
  FitTimes fits;
  Model model = args.trace ? TracedFitPhase(run) : TimedFit(run, &fits);
  if (!SaveModelBinary(model, run.model_path).ok()) {
    Die("cannot write " + run.model_path);
  }
  // One-threaded engine: the reference answers, then the InferBatch
  // passes of every round.
  const Engine engine = Unwrap(
      Engine::Create(&run.dataset.network, model, EngineOptions{1}),
      "Engine::Create");
  for (auto& answer : engine.InferBatch(run.fx.queries)) {
    run.ledger.Check(answer.ok(), "reference query answered");
    run.reference.push_back(answer.ok() ? std::move(answer).value()
                                        : std::vector<double>());
  }
  std::unique_ptr<Server> server;
  const double server_setup_s = ServerSetupPhase(run, &server);

  // The timed rounds.
  Maintenance maintenance;
  maintenance.dataset = run.dataset;
  maintenance.model = model;
  run.reference_version = server->model_version();
  maintenance.published.push_back(run.reference_version);
  std::vector<double> p50, p90, rw_p50, rw_p90, lag_us, submit_us,
      light_p99, heavy_round_qps, infer_us, infer_raw_us;
  HeavyResult heavy;
  auto writer =
      std::make_unique<MaintenanceThread>(run, *server, &maintenance);
  const int64_t light_ns =
      static_cast<int64_t>(kLightShare * budget / kRounds * 1e9);
  for (size_t round = 0; round < kRounds; ++round) {
    const uint64_t seed = args.seed * 1000 + round;
    {
      Dataset scratch;
      TimedLoad(run, &scratch, &loads);
    }
    // Fits are spread over the rounds: another one runs whenever it would
    // end inside the fit share of the rounds so far.
    const double fit_budget = kFitShare * budget * (round + 1) / kRounds;
    while (!args.trace &&
           Sum(fits.wall_s) + fits.wall_s.back() <= fit_budget) {
      TimedFit(run, &fits);
    }
    if (round > 0) {
      // Serve the fitted model again: the refresh segment swapped in the
      // grown one.
      const bool swapped = server->SwapModel(model).ok();
      run.ledger.Op(swapped);
      run.reference_version = server->model_version();
      maintenance.published.push_back(run.reference_version);
    }
    const StreamResult light = LightStream(
        run, *server, seed ^ 0x11aeULL,
        [&](int64_t due) { return due >= light_ns; }, true);
    run.ledger.Check(light.refused == 0 && light.failed == 0,
                     "light stream: nothing refused or failed");
    p50.push_back(Percentile(light.latency_us, 50));
    p90.push_back(Percentile(light.latency_us, 90));
    light_p99.push_back(Percentile(light.latency_us, 99));
    lag_us.insert(lag_us.end(), light.lag_us.begin(), light.lag_us.end());
    submit_us.insert(submit_us.end(), light.submit_us.begin(),
                     light.submit_us.end());
    const size_t slices_before = heavy.slice_qps.size();
    HeavyPhase(run, *server, kHeavyShare * budget / kRounds, &heavy);
    heavy_round_qps.push_back(Median(std::vector<double>(
        heavy.slice_qps.begin() + slices_before, heavy.slice_qps.end())));
    infer_us.emplace_back();
    infer_raw_us.push_back(InferRound(run, engine, &infer_us.back()));
    const size_t end = run.fx.deltas.size() * (round + 1) / kRounds;
    // A warm refit every other round, the last one after the last delta:
    // refits spread over the run like the fits.
    const StreamResult reads =
        RefreshSegment(run, *server, *writer, end, round % 2 == 1,
                       seed ^ 0x2e4dULL, &maintenance);
    rw_p50.push_back(Percentile(reads.latency_us, 50));
    rw_p90.push_back(Percentile(reads.latency_us, 90));
  }
  writer.reset();  // joins the maintenance thread
  CheckMaintenance(run, maintenance);
  const ServerStats stats = server->Stats();
  server.reset();

  std::printf("fit: NMI %.4f, strengths", Nmi(model, run.dataset));
  for (size_t r = 0; r < model.gamma.size(); ++r) {
    std::printf(" %s=%.3f", model.link_types[r].c_str(), model.gamma[r]);
  }
  std::printf("\nfit seconds, wall:");
  for (double v : fits.wall_s) std::printf(" %.3f", v);
  std::printf("; on-CPU:");
  for (double v : fits.cpu_s) std::printf(" %.3f", v);
  std::printf("; refit seconds, wall:");
  for (double v : maintenance.refit_s) std::printf(" %.3f", v);
  std::printf("\nlight p90 %.1f us, p99 per round (printed, not metrics):",
              Median(p90));
  for (double v : light_p99) std::printf(" %.1f", v);
  std::printf(" us\nheavy qps per round:");
  for (double v : heavy_round_qps) std::printf(" %.0f", v);
  std::printf("\n");
  const Maintenance& m = maintenance;
  const double mean_batch =
      heavy.batches > 0.0 ? heavy.queries / heavy.batches : 0.0;
  if (args.trace) {
    run.Add("hin.load_s", Median(loads.cpu_s), "s");
    LayerProbes(run, model, mean_batch, Median(p50), m);
    run.Add("server.submit_us", Median(submit_us), "us");
    run.Add("server.p50_us", Median(p50), "us");
    run.Add("server.p90_us", Median(p90), "us");
    run.Add("server.rw_p50_us", Median(rw_p50), "us");
    run.Add("server.rw_p90_us", Median(rw_p90), "us");
    run.Add("server.qps", Median(heavy.slice_qps), "1/s");
    run.Add("server.mean_batch", mean_batch, "count");
    run.Add("server.queue_high_water",
            static_cast<double>(stats.queue_high_water), "count");
    run.Add("gen.lag_p50_us", Percentile(lag_us, 50), "us");
    run.Add("gen.lag_p90_us", Percentile(lag_us, 90), "us");
    const WorkingSet ws =
        ComputeWorkingSet(run.dataset, run.fx.fit_config.num_clusters);
    run.Add("ws.computed_mib", ws.total() / (1024.0 * 1024.0), "MiB");
    run.Add("host.calibration_ms", Mean(run.calibrator.pass_seconds()) * 1e3,
            "ms");
    const std::string out =
        args.trace_out.empty() ? stem + ".trace.json" : args.trace_out;
    if (!run.tracer.WriteChromeJson(out)) Die("cannot write " + out);
    std::printf("trace: spans written to %s; self time by span:\n",
                out.c_str());
    for (const auto& [name, seconds] : run.tracer.SelfSeconds()) {
      std::printf("  %-28s %10.4f s\n", name.c_str(), seconds);
    }
  } else {
    // Timings over rounds are medians of the per-round figures; update
    // percentiles pool all calls (a p90 needs ten samples beyond it).
    // Every time is on-CPU, scaled to the reference host by the
    // calibration passes around it.
    std::printf(
        "calibration: mean pass %.3f ms (main thread, %zu passes), %.3f ms "
        "(maintenance thread, %zu), %.3f ms (%zu fit threads at once, %zu); "
        "unscaled: setup_s %.4f fit_cpu_s %.4f infer_us %.4f update_p50_ms "
        "%.3f update_p90_ms %.3f\n",
        Mean(run.calibrator.pass_seconds()) * 1e3,
        run.calibrator.pass_seconds().size(),
        Mean(m.calibrator.pass_seconds()) * 1e3,
        m.calibrator.pass_seconds().size(),
        Mean(run.fit_calibrator->pass_seconds()) * 1e3,
        run.fx.fit_config.num_threads,
        run.fit_calibrator->pass_seconds().size(), Median(loads.cpu_s),
        Median(fits.cpu_s), Median(infer_raw_us), Percentile(m.update_ms, 50),
        Percentile(m.update_ms, 90));
    run.Add("setup_s", Median(loads.scaled_s) + server_setup_s, "s");
    // The calibration buffers are the benchmark's, not the program's.
    const double calibration_mb =
        static_cast<double>(run.calibrator.Bytes() + m.calibrator.Bytes() +
                            run.fit_calibrator->Bytes()) /
        (1024.0 * 1024.0);
    run.Add("peak_rss_mb", PeakRssMb() - calibration_mb, "MB");
    run.Add("fit_cpu_s", Median(fits.scaled_s), "s");
    run.Add("nmi", Nmi(model, run.dataset), "ratio");
    run.Add("infer_us", Median(infer_us), "us");
    run.Add("update_p50_ms", Percentile(m.update_scaled_ms, 50), "ms");
    run.Add("update_p90_ms", Percentile(m.update_scaled_ms, 90), "ms");
  }
  std::remove(run.dataset_path.c_str());
  std::remove(run.model_path.c_str());
  std::remove((run.model_path + ".publish").c_str());
  PrintTable(run);
  PrintResult(run);
  return run.ledger.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
