// Incremental model maintenance: the middle ground between fit-once and
// refit-from-scratch for HINs that keep growing.
//
// Three freshness tiers, cheapest first:
//
//   * ApplyUpdates — streaming: folds batches of NetworkDelta (hin/delta.h)
//     into an existing Dataset + Model in place. Every touched row (new
//     nodes, sources of new links, nodes with new observations) is
//     re-solved by the serving fold-in — one ServeCore (core/inference.h)
//     with the ServeDefaults sweep count and floor — over the node's
//     out-links and observations, in a few Jacobi rounds; components
//     are optionally re-estimated from the updated Theta, resuming from
//     the M-step sums the model kept from its last refresh when only new
//     rows carry changed observations. No EM sweeps over the full
//     network.
//
//   * Engine::Refit (declared in core/engine.h, defined here) — nightly:
//     a full Algorithm 1 run on the grown dataset, warm-started from the
//     previous Model. Surviving nodes keep their Theta rows, new nodes
//     are seeded by the same serving fold-in, and components/gamma carry
//     over, so convergence costs iterations-to-delta instead of
//     iterations-from-scratch.
//
//   * Engine::Fit — the from-scratch baseline.
//
// A refreshed model reaches production through Server::SwapModel
// (core/server.h) with zero downtime; Model::Fingerprint() identifies
// which model answered which request.
#pragma once

#include <span>

#include "core/engine.h"
#include "hin/delta.h"

namespace genclus {

/// Options of Engine::Refit. The cluster count always comes from the
/// previous model (a refit cannot change K); an empty
/// config.initial_gamma means "carry the previous model's gamma". New
/// nodes are seeded with ServeDefaults::kInferenceIterations sweeps and
/// config.theta_floor.
struct RefitOptions {
  GenClusConfig config;
  /// Notified after every outer iteration; null = no observation.
  ProgressObserver* observer = nullptr;
  /// Polled between outer iterations; null = not cancellable.
  const CancellationToken* cancellation = nullptr;
};

/// Options of ApplyUpdates. Each row solve is one serving fold-in with
/// the ServeDefaults sweep count and floor.
struct UpdateOptions {
  /// Jacobi refinement rounds over the touched node set: every round
  /// re-solves each touched row against the previous round's Theta, so
  /// the result is independent of iteration order and deterministic. >= 1.
  size_t rounds = 2;
  /// Re-estimate beta and the Gaussians from the updated Theta after the
  /// rows settle, through EmOptimizer::EstimateComponents. The refresh
  /// resumes from the sums the model kept from its last refresh, reading
  /// only the appended rows' observations, when all of these hold:
  ///   * the kept sums cover exactly the rows the model had on entry (a
  ///     fitted, refitted, loaded or copied model has none);
  ///   * no model attribute changed since that refresh (each carries the
  ///     stamp it gave them; every Attribute mutator clears it);
  ///   * those Theta rows are bitwise what the sums read;
  ///   * no re-solved old row carries an observation of a model
  ///     attribute (in an ACP network the authors and conferences a new
  ///     paper re-solves carry no text).
  /// Otherwise it is one pass over all observations. Either way beta and
  /// the Gaussians are bit for bit those of the full pass. A call that
  /// re-solves an old row with observations keeps no sums, so a stream
  /// whose deltas always do so pays nothing for sums it cannot use; the
  /// next call that does not starts keeping them again. When false,
  /// components are carried unchanged and the kept sums are dropped.
  bool refresh_components = true;
};

/// What one ApplyUpdates call did.
struct UpdateReport {
  size_t deltas_applied = 0;
  size_t new_nodes = 0;
  size_t new_links = 0;
  size_t new_observations = 0;
  /// Distinct nodes whose Theta rows were re-solved (new nodes, sources
  /// of new links, nodes with new observations).
  size_t touched_nodes = 0;
  /// Rows whose observations the component refresh read: every row on a
  /// full pass, the appended rows when it resumed, 0 without a refresh.
  size_t refreshed_rows = 0;
  double seconds = 0.0;
};

/// Folds `deltas` (applied in order) into `dataset` and `model` in place:
/// the dataset grows in place via GrowDataset (hin/delta.h), the model
/// gains Theta rows for new nodes, and every touched row is re-solved
/// with options.rounds Jacobi rounds. After one round, a touched row is
/// bit for bit what Engine::InferBatch answers for the query carrying
/// the node's out-links and observations, against the Theta the round
/// read (new rows uniform). The model's objective field is left at its
/// last fitted value (stale until the next Refit). Requires
/// model->num_nodes() == dataset->network.num_nodes() on entry and the
/// model's attribute/link-type metadata to match the dataset's schema.
/// All-or-nothing: on error neither the dataset nor the model changes.
/// Growing reallocates the network, so no Server or Engine may reference
/// dataset->network during the call: serve from another copy of the
/// dataset (grow an offline copy, then SwapModel).
Result<UpdateReport> ApplyUpdates(Dataset* dataset, Model* model,
                                  std::span<const NetworkDelta> deltas,
                                  const UpdateOptions& options = {});

}  // namespace genclus
