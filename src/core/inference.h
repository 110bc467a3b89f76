// Fold-in serving: compute membership vectors for NEW objects from their
// links into an already-clustered network plus their own attribute
// observations, holding the trained Model (Theta, beta, gamma) fixed.
// Each answer is exactly one Eq. 10/11-style update for the new object —
// the update GenClus applies to attribute-free objects every sweep — so
// the result is consistent with what a full re-run would assign.
//
// Two paths compute that update:
//
//   * InferMembership — the per-query reference path: validates one
//     query, gathers its link term over Model::theta and runs the
//     attribute fixed-point sweeps. Kept as the ground truth the batch
//     path is tested (and benched) against.
//
//   * BatchPlanner + InferSession — the batch-planned serving pipeline.
//     A batch of queries *is* a sparse matrix (rows = queries, cols =
//     link targets), so Plan() validates every query up front (per-query
//     Status preserved), assembles the valid queries' links into one
//     query x node CSR, and Execute() computes the whole batch's link
//     term Σ_r γ_r (Q_r Θ) through the SpMM kernel (linalg/spmm.h) — γ_r
//     is folded into the CSR values at plan time so each row accumulates
//     in the query's original link order and the result stays bitwise
//     identical to the reference path. Model-side constants (one
//     GaussianEvalTable per numerical attribute, a term-major transpose
//     of each categorical beta) are built once in a reusable
//     ServeWorkspace and shared by every query of every batch. The
//     attribute sweeps run over fixed-grain query blocks, so results are
//     bitwise invariant to the thread count.
//
// The pipeline has three users. Engine (core/engine.h) wraps it behind
// Plan/Execute and keeps Infer/InferBatch as thin wrappers over a
// one-shot plan; Server (core/server.h) runs it behind a bounded
// micro-batching request queue; and maintenance (core/update.h) folds
// network nodes in through it — ApplyUpdates re-solves touched rows and
// Engine::Refit seeds new ones with the query a new object carrying the
// node's out-links and observations would send.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/components.h"
#include "core/config.h"
#include "core/model.h"
#include "hin/network.h"
#include "linalg/matrix.h"
#include "linalg/sharding.h"
#include "linalg/spmm.h"
#include "prob/simplex.h"

namespace genclus {

/// Serving defaults, single-sourced: engine and server options,
/// InferMembership's defaults, maintenance's fold-in (ApplyUpdates and
/// Refit seeding) and the tests all read these instead of restating
/// literals.
struct ServeDefaults {
  /// Fixed-point sweeps per query (the responsibilities depend on the
  /// object's own theta, so a few iterations refine the attribute part;
  /// the link part is constant).
  static constexpr size_t kInferenceIterations = 10;
  /// Floor applied to inferred membership probabilities — the same floor
  /// training clamps Theta rows with (prob/simplex.h), not a restatement.
  static constexpr double kThetaFloor = kDefaultThetaFloor;
  /// Early-exit tolerance of the fixed-point sweep: stop once
  /// max_k |theta_k - theta_k'| falls below this.
  static constexpr double kSweepTolerance = 1e-10;
  /// Queries per fixed-grain execution block. The block partition is a
  /// function of the batch size only — never of the thread count — which
  /// is what makes batch execution bitwise thread-invariant.
  static constexpr size_t kBatchBlockGrain = 16;
};

/// A would-be out-link of the new object into the existing network.
struct NewObjectLink {
  NodeId target = kInvalidNode;
  LinkTypeId type = kInvalidLinkType;
  double weight = 1.0;
};

/// A categorical observation of the new object (term + count) for one of
/// the model's attributes, or a numerical value. `kind` says which member
/// the caller filled; aggregate initialization leaves it categorical.
/// Prefer the Categorical / Numerical factories, which set it.
struct NewObjectObservation {
  AttributeId attribute = kInvalidAttribute;
  uint32_t term = 0;      // categorical
  double count = 1.0;     // categorical
  double value = 0.0;     // numerical
  AttributeKind kind = AttributeKind::kCategorical;

  /// `count` occurrences of `term` for a categorical attribute.
  static NewObjectObservation Categorical(AttributeId attribute,
                                          uint32_t term, double count = 1.0);
  /// One real-valued observation of a numerical attribute.
  static NewObjectObservation Numerical(AttributeId attribute, double value);

  /// Checks this observation against a trained model: the attribute must
  /// exist and be of `kind`, a categorical term must lie inside the
  /// trained vocabulary, a count must be finite and non-negative and a
  /// value finite, each at most kMaxObservationMagnitude in magnitude —
  /// the bound a dataset's Attribute applies (hin/attributes.h).
  Status Validate(const Model& model) const;
};

/// A new object's evidence for one fold-in membership query: its would-be
/// out-links into the serving network and its own attribute observations.
struct NewObjectQuery {
  std::vector<NewObjectLink> links;
  std::vector<NewObjectObservation> observations;
};

/// Hard label reported for queries that failed validation.
inline constexpr uint32_t kNoHardLabel =
    std::numeric_limits<uint32_t>::max();

/// Validated, executable form of one serve batch, produced by
/// BatchPlanner::Plan (or Engine::Plan). Invalid queries keep their
/// per-query Status and are excluded from the CSR; valid queries occupy
/// CSR rows in input order.
struct InferPlan {
  /// Per-input-query validation outcome, slot i for query i.
  std::vector<Status> statuses;
  /// CSR row -> input query index (valid queries only, in input order).
  std::vector<size_t> row_to_query;
  /// Query x node link matrix in CSR form. Values are gamma(type) *
  /// weight, and each row's non-zeros are stable-sorted by target column
  /// — the canonical accumulation order shared with the reference path
  /// (InferMembership sums its link part in the same stable
  /// ascending-target order), so SpMM output is bitwise identical to the
  /// reference link term AND independent of how the columns are cut into
  /// Θ shards. Duplicate links to the same target stay separate adjacent
  /// non-zeros in their original relative order.
  std::vector<size_t> row_offsets;  // num_rows() + 1
  std::vector<uint32_t> link_cols;
  std::vector<double> link_values;
  /// Column-shard state of the link CSR: the planner's resolved Θ
  /// partition, plus the per-row shard cuts when the partition has more
  /// than one shard (Execute then merges per-shard link terms in
  /// ascending shard order; otherwise it takes the monolithic path).
  ShardPartition theta_partition;
  CsrColumnSplit shard_split;
  /// Observations of the valid queries, flattened; row i's observations
  /// live at [observation_offsets[i], observation_offsets[i + 1]). Plan
  /// has checked each one's kind against the model, so execution never
  /// chases model components to learn it.
  std::vector<NewObjectObservation> observations;
  std::vector<size_t> observation_offsets;  // num_rows() + 1
  /// Batch stats over the valid queries.
  size_t total_links = 0;
  size_t total_observations = 0;
  /// Wall-clock seconds spent planning (validation + CSR assembly).
  double plan_seconds = 0.0;

  size_t num_queries() const { return statuses.size(); }
  size_t num_rows() const { return row_to_query.size(); }
  CsrMatrixView links() const {
    return CsrMatrixView{row_offsets, link_cols, link_values};
  }
};

/// Plan/exec timings and batch stats of one executed batch.
struct ServeReport {
  size_t batch_size = 0;
  size_t valid_queries = 0;
  size_t total_links = 0;
  size_t total_observations = 0;
  /// Fixed-grain execution blocks the batch was cut into.
  size_t exec_blocks = 0;
  /// Valid queries answered with fewer fixed-point sweeps than the
  /// configured normal — the serving tier's graceful-degradation mode.
  /// Always 0 on the direct Engine/InferSession paths.
  size_t degraded_queries = 0;
  double plan_seconds = 0.0;
  double exec_seconds = 0.0;
};

/// Typed result of executing an InferPlan: per-query status, membership
/// and hard label (slot i for input query i), plus the batch report.
/// Memberships are one dense batch x K matrix — a single allocation per
/// batch instead of one vector per query, and the natural shape for
/// callers that post-process whole batches. Failed queries keep a zero
/// membership row and kNoHardLabel.
struct InferenceResult {
  std::vector<Status> statuses;
  Matrix memberships;
  std::vector<uint32_t> hard_labels;
  /// Version of the model that answered each query — filled only by the
  /// serving tier's collector path (core/server.h), where answers of one
  /// logical batch can straddle a SwapModel; empty on the direct
  /// Engine/InferSession paths. Slot i is 0 for queries that failed
  /// before execution.
  std::vector<uint64_t> model_versions;
  ServeReport report;

  size_t size() const { return statuses.size(); }
  bool ok(size_t i) const { return statuses[i].ok(); }
  /// Query i's membership row (all-zero when the query failed).
  std::span<const double> membership(size_t i) const {
    return {memberships.Row(i), memberships.cols()};
  }
};

/// Validates serve batches against a (network, model) pair and assembles
/// InferPlans. Stateless apart from the model-level precondition, which
/// is checked once at construction; both pointers must outlive the
/// planner.
class BatchPlanner {
 public:
  /// `theta_shards` picks the column-shard count used to execute the
  /// batch link term: 0 (default) adopts the model's stamped
  /// `theta_shards`, any other value overrides it (clamped like
  /// ShardPartition::Resolve). Served memberships are bitwise identical
  /// for every choice.
  BatchPlanner(const Network* network, const Model* model,
               size_t theta_shards = 0);

  /// Validates every query (per-query Status — one bad query never
  /// poisons the rest) and assembles the valid ones into the batch CSR.
  InferPlan Plan(std::span<const NewObjectQuery> queries) const;

 private:
  const Network* network_;
  const Model* model_;
  /// Model-vs-network precondition; a failure marks every query.
  Status model_status_;
  /// Resolved Θ column partition every plan carries.
  ShardPartition theta_partition_;
};

/// Reusable per-session scratch of the batch execution path: the
/// model-side constants shared by every batch (one GaussianEvalTable per
/// numerical attribute, a term-major transpose of each categorical beta)
/// and the per-batch buffers (the batch link-term matrix, per-block sweep
/// scratch). Analogous to the EM path's EmWorkspace.
class ServeWorkspace {
 public:
  ServeWorkspace() = default;

 private:
  friend class InferSession;

  // Builds the model-side tables; no-op when already built for `model`.
  // The model's components must not change while a workspace is prepared
  // for it; Theta is never cached (every Execute reads its rows live).
  void PrepareModel(const Model& model);
  // (Re)sizes the per-batch buffers; reuses capacity across batches.
  void PrepareBatch(size_t num_rows, size_t num_clusters,
                    size_t num_blocks);

  // One resolved observation of the executing query: the sweep loop
  // reads `data` (term-major beta row, or the query's cached Gaussian
  // log-density row) instead of chasing model components per sweep.
  struct ObsRef {
    const double* data = nullptr;
    double count = 0.0;
    bool categorical = false;
  };

  // Per-block sweep scratch: theta/mix/responsibilities/log-theta (4 x K
  // doubles in `kbuf`), the per-query cache of sweep-invariant Gaussian
  // log-densities (one K-row per numerical observation) and the resolved
  // observation descriptors.
  struct BlockScratch {
    std::vector<double> kbuf;
    std::vector<double> log_pdf;
    std::vector<ObsRef> obs;
  };

  const Model* prepared_for_ = nullptr;
  // Term-major transpose (vocab x K) of each categorical attribute's
  // beta, so the per-term E-step reads K contiguous doubles.
  std::vector<Matrix> beta_transpose_;
  // Hoisted Gaussian constants of each numerical attribute — built once
  // per model instead of once per query.
  std::vector<GaussianEvalTable> gaussians_;
  // Batch link term Σ_r γ_r (Q_r Θ): num_rows x K.
  Matrix link_part_;
  std::vector<BlockScratch> block_scratch_;
};

/// Executes InferPlans over a thread pool, reusing one ServeWorkspace
/// across batches. `model` must outlive the session and its components
/// must not change while the session exists; Theta rows are read live by
/// every Execute, so they may be rewritten between batches (ApplyUpdates'
/// Jacobi rounds do). `pool` may be null for serial execution.
/// Not thread-safe: callers running batches concurrently use one session
/// per concurrent batch (Engine recycles a session pool; Server gives
/// each worker thread its own session).
class InferSession {
 public:
  InferSession(const Model* model, ThreadPool* pool,
               size_t iterations = ServeDefaults::kInferenceIterations,
               double theta_floor = ServeDefaults::kThetaFloor);

  /// Runs the batch: one SpMM pass for the link term, then the attribute
  /// fixed-point sweeps, both over fixed-grain query blocks. Results are
  /// bitwise identical to per-query InferMembership and to any other
  /// thread count. The plan must have been built against this session's
  /// model.
  InferenceResult Execute(const InferPlan& plan);

  /// Fixed-point sweeps per query. The serving tier's degradation
  /// controller lowers this under sustained overload and restores it on
  /// recovery; each worker owns its session, so no synchronization is
  /// needed. Clamped to at least 1 at execution time.
  void set_iterations(size_t iterations) { iterations_ = iterations; }
  size_t iterations() const { return iterations_; }

 private:
  // Runs query rows [row_begin, row_end) of one block: SpMM for the
  // block's link-term rows, then the per-query sweeps (dispatched to a
  // K-specialized instantiation for common cluster counts, like the SpMM
  // kernel — unrolling never reorders a floating-point op, so every
  // instantiation yields bitwise identical results).
  void ExecuteBlock(const InferPlan& plan, size_t block, size_t row_begin,
                    size_t row_end, InferenceResult* out);
  // kFixedK > 0: compile-time cluster count; kFixedK == -1: runtime K.
  template <int kFixedK>
  void SweepRows(const InferPlan& plan, size_t block, size_t row_begin,
                 size_t row_end, InferenceResult* out);

  const Model* model_;
  ThreadPool* pool_;
  size_t iterations_;
  double theta_floor_;
  ServeWorkspace workspace_;
};

/// Infers theta for a new object given its out-links and observations —
/// the per-query reference path the batch pipeline is tested against.
/// `iterations` fixed-point sweeps. Fails if a link/observation
/// references unknown ids or mismatched attribute kinds.
Result<std::vector<double>> InferMembership(
    const Network& network, const Model& model,
    const std::vector<NewObjectLink>& links,
    const std::vector<NewObjectObservation>& observations,
    size_t iterations = ServeDefaults::kInferenceIterations,
    double theta_floor = ServeDefaults::kThetaFloor);

}  // namespace genclus
