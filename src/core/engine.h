// Train/serve split around the GenClus algorithm.
//
// Training: Engine::Fit(dataset, options) runs Algorithm 1 once and
// returns a persistable Model plus a structured FitReport — convergence,
// objective, timings and the per-iteration trace. Engine::Refit
// (core/update.h) runs the same loop warm-started from a previous model;
// the two are the library's only training entry points. Progress
// streaming and cooperative cancellation go through FitOptions
// (ProgressObserver / CancellationToken).
//
// Serving: Engine::Create(network, model) builds a reusable serving object
// that owns a ThreadPool and the model's ServeCore (core/inference.h) and
// answers membership queries for new objects via the Eq. 10/11 fold-in
// update, batch-planned:
//
//   InferPlan plan = engine.Plan(queries);     // validate + assemble CSR
//   InferenceResult result = engine.Execute(plan);
//
// Plan validates every query up front (per-query Status — one bad query
// never poisons the rest) and assembles the valid queries' links into one
// query x node CSR. Execute routes the whole batch's link term through
// the SpMM kernel and runs the attribute sweeps over fixed-grain query
// blocks on the engine's pool; results are bitwise identical to the
// per-query InferMembership reference and to any thread count. The core
// is immutable and every Execute owns its scratch, so concurrent Execute
// calls run in parallel with no lock at all. Callers that want per-query
// submission with bounded-queue backpressure run the micro-batching
// serving tier (core/server.h) directly. Infer/InferBatch remain as thin
// wrappers over a one-query / one-shot plan.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/config.h"
#include "core/inference.h"
#include "core/model.h"
#include "hin/dataset.h"
#include "linalg/matrix.h"

namespace genclus {

/// Snapshot of one outer iteration, for convergence traces (Fig. 10).
struct OuterIterationRecord {
  size_t iteration = 0;
  std::vector<double> gamma;     // strengths after this iteration
  double em_objective = 0.0;     // g1 after the EM step
  double strength_objective = 0.0;  // g2' after the Newton step
  size_t em_iterations = 0;
  double em_seconds = 0.0;
  double strength_seconds = 0.0;
};

/// Observer notified after every outer iteration of a training run with
/// the iteration record and the current memberships. Implementations must
/// not retain the Matrix reference beyond the call. Pass via
/// FitOptions::observer or RefitOptions::observer (core/update.h).
class ProgressObserver {
 public:
  virtual ~ProgressObserver() = default;

  virtual void OnOuterIteration(const OuterIterationRecord& record,
                                const Matrix& theta) = 0;
};

/// Training-surface options: which attributes to cluster by, the algorithm
/// configuration, and optional progress/cancellation hooks (not owned;
/// must outlive the Fit call).
struct FitOptions {
  /// Attribute names resolved against the dataset (the user-specified
  /// subset X; may be empty for pure link-based clustering).
  std::vector<std::string> attributes;
  GenClusConfig config;
  /// Notified after every outer iteration; null = no observation.
  ProgressObserver* observer = nullptr;
  /// Polled between outer iterations; null = not cancellable.
  const CancellationToken* cancellation = nullptr;
};

/// Structured summary of one training run.
struct FitReport {
  /// True if the outer loop hit the gamma-change tolerance.
  bool converged = false;
  /// g1 objective at the final iterate.
  double objective = 0.0;
  /// Outer iterations actually executed.
  size_t outer_iterations = 0;
  /// Wall-clock seconds for the whole fit, including initialization.
  double total_seconds = 0.0;
  /// Wall-clock seconds spent in the EM cluster-optimization steps
  /// (E-step phase), summed over outer iterations.
  double em_seconds = 0.0;
  /// Wall-clock seconds spent learning relation strengths (γ-step phase),
  /// summed over outer iterations.
  double strength_seconds = 0.0;
  /// Per-outer-iteration records, including the initial gamma at index 0.
  std::vector<OuterIterationRecord> trace;
};

/// Result of Engine::Fit: the trained artifact plus the run summary.
struct FitResult {
  Model model;
  FitReport report;
};

/// Serving-side knobs. Every answer runs ServeDefaults' sweep count and
/// floor (core/inference.h), the values the reference path defaults to.
struct EngineOptions {
  /// Worker threads for batch execution. 0 = hardware concurrency.
  size_t num_threads = 0;
};

struct RefitOptions;  // core/update.h

/// Reusable serving object: a Network + trained Model + thread pool +
/// the model's ServeCore. The network must outlive the engine; the model
/// is owned.
class Engine {
 public:
  /// Trains a model on `dataset`. Validates the dataset, the attribute
  /// names and the config up front; fails with kCancelled if
  /// options.cancellation fires mid-run.
  static Result<FitResult> Fit(const Dataset& dataset,
                               const FitOptions& options);

  /// Retrains on a grown dataset warm-starting from `prev_model`:
  /// surviving nodes keep their Theta rows, new nodes are seeded by the
  /// serving fold-in, and components/gamma carry over — so a refresh costs
  /// iterations-to-delta instead of iterations-from-scratch. Defined in
  /// core/update.cc; see RefitOptions there.
  static Result<FitResult> Refit(const Dataset& dataset,
                                 const Model& prev_model,
                                 const RefitOptions& options);

  /// Builds a serving engine after checking that `model` is internally
  /// consistent and matches `network` (node count, link-type names).
  static Result<Engine> Create(const Network* network, Model model,
                               EngineOptions options = {});

  const Model& model() const { return *model_; }
  size_t num_threads() const { return pool_->num_threads(); }

  /// Validates a batch and assembles its executable plan. Per-query
  /// failures land in InferPlan::statuses; valid queries form the batch
  /// CSR. Pure function of the queries — never blocks on the pool.
  InferPlan Plan(std::span<const NewObjectQuery> queries) const;

  /// Executes a plan this engine produced: one SpMM pass for the batch
  /// link term plus blocked attribute sweeps over the pool. Concurrent
  /// calls execute in parallel on the one core, each with its own
  /// scratch; results are bitwise identical to per-query InferMembership
  /// for any thread count.
  InferenceResult Execute(const InferPlan& plan) const;

  /// Answers one fold-in query — a thin wrapper over a one-query plan.
  Result<std::vector<double>> Infer(const NewObjectQuery& query) const;

  /// Answers a batch of queries — a thin wrapper over a one-shot plan.
  /// Slot i holds query i's membership vector or its own error status.
  std::vector<Result<std::vector<double>>> InferBatch(
      std::span<const NewObjectQuery> queries) const;

 private:
  Engine(const Network* network, std::unique_ptr<Model> model,
         size_t num_threads);

  // Shared by Fit and Refit (core/update.cc): resolves the attribute-name
  // subset against the dataset and records the model-side attribute info.
  static Status ResolveAttributes(const Dataset& dataset,
                                  const std::vector<std::string>& names,
                                  std::vector<const Attribute*>* attrs,
                                  std::vector<ModelAttributeInfo>* info);

  // Algorithm 1, the one training loop behind Fit and Refit. Starts from
  // `model`'s Theta and components when Theta has columns (Refit's warm
  // start), else from best-of-seeds initialization (Fit). Per outer
  // iteration: EM over Theta/beta for fixed gamma on one shared
  // workspace, g1, then Newton over gamma and the gamma-change test; a
  // final g1 closes the run. Writes the result into `model` — stamping
  // the schema's link-type names — and the run summary into the report;
  // `config` must already be validated and `attrs` aligned with
  // model.attributes. total_seconds is read from `timer`.
  static Result<FitResult> RunAlgorithm1(
      const Dataset& dataset, const std::vector<const Attribute*>& attrs,
      const GenClusConfig& config, ProgressObserver* observer,
      const CancellationToken* cancellation, Model model,
      const WallTimer& timer);

  // Heap-held so core_'s pointer into the model survives Engine moves.
  std::unique_ptr<Model> model_;
  ServeCore core_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace genclus
