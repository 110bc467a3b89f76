// The serving tier: a Server owns the Plan/Execute pipeline behind a
// bounded MPMC request queue with backpressure and micro-batching.
//
//   Submit(query)  --TryPush-->  BoundedQueue  --PopBatch-->  N workers
//     (never blocks;               (bounded,       (coalesce up to
//      queue full =>                backpressure)   max_batch queries,
//      kResourceExhausted)                          linger max_wait_us)
//
// Each worker thread owns its own InferSession (and therefore its own
// ServeWorkspace), so micro-batches execute concurrently — no global
// execution mutex. The admission loop coalesces queued single queries
// into micro-batches sized to the SpMM sweet spot (max_batch defaults to
// the knee of the per-query cost against batch size). Because every
// query's sweep depends only on its own links and observations, the
// per-query answers are bitwise identical to Engine::InferBatch no matter
// how the admission loop happens to batch them — the contract
// tests/core/server_test.cc pins under concurrency.
//
// Results are delivered per query through promises: Submit hands back a
// std::future<QueryResult> that becomes ready when some worker finishes
// the query's micro-batch. SubmitBatch enqueues a whole batch and returns
// one future for the assembled InferenceResult. Stop() closes the queue
// and — by default — drains it: every admitted request is executed before the
// workers join, so pending futures always complete and nothing dangles
// (the fix for the old Submit's use-after-free on Engine destruction).
// With drain_on_stop = false, requests still queued at Stop() fail fast
// with kCancelled instead of executing.
//
// Deadline-aware robustness (tests/core/server_deadline_test.cc):
//
//   * Every Request carries a Deadline (common/deadline.h) — set per
//     query through the Submit/SubmitBatch overloads or defaulted from
//     ServerOptions::default_timeout_us. Infinite by default: a
//     deadline-free caller pays one is_infinite() branch and nothing else.
//   * Shed at dequeue: a worker drops requests whose deadline has expired
//     (or would expire during the predicted execution) instead of doing
//     work nobody can use. Shed futures resolve with kDeadlineExceeded.
//   * Linger cap: a tight-deadline request caps its micro-batch's
//     coalescing linger so the batch starts executing while that request
//     can still meet its budget, with slack for a worker that wakes late
//     in proportion to that budget.
//   * Cost-based early rejection: when queue-wait + execution EWMAs
//     predict an arriving request cannot meet its deadline, Submit
//     rejects it immediately with kDeadlineExceeded — the cheapest
//     possible shed, before the queue ever holds it.
//   * Graceful degradation: under sustained overload (queue-wait EWMA
//     above degrade_queue_wait_us) workers step inference_iterations down
//     toward min_inference_iterations, trading per-answer sweep count for
//     throughput; answers computed with fewer sweeps are flagged
//     (QueryResult::degraded, ServerStats::degraded) and the tier steps
//     back up once the queue-wait EWMA falls below the recovery threshold.
//
// Every admitted request resolves with a definite outcome — completed,
// kDeadlineExceeded, kCancelled, or kInternal (a worker that caught an
// execution exception fails that batch's futures and keeps serving); the
// accounting invariant `accepted == completed + cancelled + deadline_shed`
// (and `submissions == accepted + rejected + deadline_rejected`) is gated
// by bench/server_bench.cc under 3x overload.
//
// Zero-downtime model hot-swap (tests/core/server_swap_test.cc):
//
//   * The served model lives behind SwapModel() as an RCU-style versioned
//     snapshot: a shared_ptr<const VersionedModel> bundling the model,
//     its BatchPlanner, a monotonically increasing version and the
//     model's content Fingerprint(). SwapModel validates the replacement
//     (ValidateForServing — it may cover MORE nodes than the network,
//     e.g. a Refit on a grown dataset; K must not change) and publishes
//     it under a short mutex; readers take shared_ptr snapshots.
//   * Each worker pins the current snapshot for the duration of one
//     micro-batch: in-flight batches finish (and are attributed) on the
//     model they started with, batches dequeued after the swap plan and
//     execute against the new one. No request is ever dropped or
//     mis-attributed by a swap.
//   * A worker's InferSession/ServeWorkspace is rebuilt lazily on the
//     first batch it runs after a swap (snapshot identity change). A
//     rebuild failure (exercised via the "server.swap_model" failpoint)
//     fails only that batch with kInternal and keeps the worker's old
//     session — the tier keeps serving.
//   * QueryResult::model_version, InferenceResult::model_versions and
//     ServerStats::{model_version, model_fingerprint, model_swaps} stamp
//     exactly which model answered what.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/deadline.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/inference.h"
#include "core/model.h"
#include "hin/network.h"

namespace genclus {

/// Admission and execution knobs of the serving tier.
struct ServerOptions {
  /// Worker threads, each owning one InferSession + ServeWorkspace.
  /// 0 = hardware concurrency.
  size_t num_workers = 2;
  /// Request-queue bound: admissions beyond this many queued queries are
  /// rejected with kResourceExhausted (never queued unboundedly).
  size_t queue_capacity = 1024;
  /// Largest micro-batch a worker coalesces per dequeue. 64 sat at the
  /// knee of the per-query Plan/Execute cost against batch size when it
  /// was chosen, from a sweep over batches of 1, 16 and 256 on a weather
  /// network: most of the SpMM win of batch 256 without its queueing
  /// delay. The repository benchmark times batches of 1 and of max_batch
  /// only, so retuning this needs such a sweep again (ROADMAP item 2).
  size_t max_batch = 64;
  /// How long a worker lingers after the first dequeued query for more
  /// arrivals to coalesce. 0 = take only what is already queued. A
  /// request's deadline caps its batch's linger below this.
  size_t max_wait_us = 200;
  /// Stop()/destructor policy: true executes every queued request before
  /// the workers join (pending futures complete with real answers);
  /// false fails still-queued requests fast with kCancelled.
  bool drain_on_stop = true;
  /// Fixed-point sweeps per query (see InferMembership).
  size_t inference_iterations = ServeDefaults::kInferenceIterations;
  /// Floor applied to inferred membership probabilities.
  double theta_floor = ServeDefaults::kThetaFloor;
  /// Θ column-shard count for the batch link term. 0 (default) adopts the
  /// model's stamped `theta_shards`; any other value overrides it
  /// (clamped like ShardPartition::Resolve). Served memberships are
  /// bitwise identical for every choice.
  size_t theta_shards = 0;
  /// Default per-request deadline budget in microseconds, applied to
  /// submissions that do not carry an explicit Deadline. 0 = no default
  /// (deadline-free requests never expire).
  int64_t default_timeout_us = 0;
  /// Reject a deadline-carrying request at Submit when the queue-wait +
  /// execution EWMAs predict it cannot meet its deadline. The cheapest
  /// shed: the request never occupies a queue slot.
  bool cost_based_rejection = true;
  /// Graceful degradation entry threshold: once the queue-wait EWMA
  /// exceeds this many microseconds, workers step their fixed-point
  /// sweep count down (one per micro-batch) toward
  /// min_inference_iterations. 0 = degradation disabled.
  int64_t degrade_queue_wait_us = 0;
  /// Recovery threshold: once the queue-wait EWMA falls below this,
  /// workers step the sweep count back up toward inference_iterations.
  /// 0 = degrade_queue_wait_us / 4. Must be below the entry threshold —
  /// the hysteresis gap prevents oscillation at the boundary.
  int64_t recover_queue_wait_us = 0;
  /// Sweep-count floor degradation never goes below.
  size_t min_inference_iterations = 2;

  Status Validate() const;
};

/// One served query's answer, delivered through Submit's future.
struct QueryResult {
  /// Validation/admission outcome; membership is meaningful only when ok.
  Status status;
  /// Membership over the model's clusters — bitwise identical to what
  /// Engine::InferBatch returns for the same query, unless `degraded`.
  std::vector<double> membership;
  uint32_t hard_label = kNoHardLabel;
  /// True when the answer was computed with fewer fixed-point sweeps
  /// than ServerOptions::inference_iterations because the tier was in
  /// graceful-degradation mode.
  bool degraded = false;
  /// Seconds the query waited in the queue before a worker dequeued it.
  double queue_seconds = 0.0;
  /// Seconds from admission to completion (queue + plan + execute).
  double total_seconds = 0.0;
  /// Version of the model that answered this query (1 for the model the
  /// server was created with, incremented per SwapModel). 0 when the
  /// request failed before execution (rejected, shed, cancelled).
  uint64_t model_version = 0;

  bool ok() const { return status.ok(); }
};

/// Percentiles over the most recent samples of one latency metric
/// (microseconds). Zero count = no samples yet.
struct LatencySummary {
  size_t count = 0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

/// Observability snapshot of a running Server (Server::Stats()). Every
/// snapshot satisfies completed + cancelled + deadline_shed <= accepted,
/// with equality once the server is quiescent (no request queued or in
/// flight).
struct ServerStats {
  /// Requests admitted into the queue (including not-yet-executed ones).
  size_t accepted = 0;
  /// Requests rejected at admission because the queue was full or the
  /// server was stopping.
  size_t rejected = 0;
  /// Requests rejected at admission because their deadline had already
  /// expired or cost-based rejection predicted they could not meet it.
  size_t deadline_rejected = 0;
  /// Requests whose result has been delivered (including kInternal
  /// failures from a caught execution exception).
  size_t completed = 0;
  /// Requests failed with kCancelled by a non-draining Stop().
  size_t cancelled = 0;
  /// Admitted requests shed at dequeue with kDeadlineExceeded because
  /// their deadline had expired (or would expire during execution).
  size_t deadline_shed = 0;
  /// Queries answered in graceful-degradation mode (fewer sweeps).
  size_t degraded = 0;
  /// Micro-batches executed.
  size_t batches = 0;
  /// Fixed-point sweep count workers are currently using — equals
  /// ServerOptions::inference_iterations except in degradation mode.
  size_t current_inference_iterations = 0;
  /// Admission-control predictions (EWMAs, microseconds): what cost-based
  /// rejection currently assumes a new request will wait / cost.
  double predicted_queue_wait_us = 0.0;
  double predicted_exec_us = 0.0;
  /// Queue depth right now and the highest depth ever observed.
  size_t queue_depth = 0;
  size_t queue_high_water = 0;
  /// Version of the currently served model (1 = the model the server was
  /// created with) and its content fingerprint (Model::Fingerprint).
  uint64_t model_version = 0;
  uint64_t model_fingerprint = 0;
  /// Successful SwapModel calls so far.
  size_t model_swaps = 0;
  /// batch_size_histogram[s] = micro-batches that executed exactly s
  /// queries (index 0 unused; size max_batch + 1).
  std::vector<size_t> batch_size_histogram;
  /// Latency percentiles over the most recent samples: time spent queued,
  /// per-micro-batch plan and execute phases, and admission-to-delivery.
  LatencySummary queue_wait;
  LatencySummary plan;
  LatencySummary exec;
  LatencySummary end_to_end;
};

/// Micro-batching fold-in server over a (network, model) pair. Create it
/// once, Submit from any number of threads, Stop (or destroy) to shut
/// down. The network must outlive the server; the server shares
/// ownership of the model (a Model is moved into a new shared_ptr), so
/// the caller cannot mutate or free it under a running worker. SwapModel
/// replaces the served model at runtime with zero dropped requests (see
/// the header comment).
class Server {
 public:
  /// Validates options and model-vs-network consistency, then starts the
  /// worker threads. The returned server is ready to Submit to.
  static Result<std::unique_ptr<Server>> Create(const Network* network,
                                                Model model,
                                                ServerOptions options = {});
  static Result<std::unique_ptr<Server>> Create(
      const Network* network, std::shared_ptr<const Model> model,
      ServerOptions options = {});

  /// Stops (draining per options) and joins the workers.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits one query. Returns the future carrying its eventual answer,
  /// or — immediately, never blocking — kResourceExhausted when the queue
  /// is at capacity / kFailedPrecondition when the server is stopped /
  /// kDeadlineExceeded when the deadline has expired or cost-based
  /// rejection predicts it cannot be met. The no-deadline overload
  /// applies ServerOptions::default_timeout_us (infinite when 0).
  Result<std::future<QueryResult>> Submit(NewObjectQuery query);
  Result<std::future<QueryResult>> Submit(NewObjectQuery query,
                                          Deadline deadline);

  /// Admits a whole batch and returns one future for the assembled
  /// InferenceResult: slot i holds query i's status/membership/hard
  /// label, bitwise identical to Engine::InferBatch on the same queries.
  /// Queries that do not fit the queue (or fail deadline admission) fail
  /// their slot with kResourceExhausted / kDeadlineExceeded — the batch
  /// future still completes. Never blocks. `deadline` applies to every
  /// query of the batch.
  std::future<InferenceResult> SubmitBatch(
      std::vector<NewObjectQuery> queries);
  std::future<InferenceResult> SubmitBatch(
      std::vector<NewObjectQuery> queries, Deadline deadline);

  /// Closes the queue (further Submits are rejected) and joins the
  /// workers; pending requests drain or cancel per
  /// ServerOptions::drain_on_stop. Idempotent and thread-safe.
  void Stop() GENCLUS_EXCLUDES(stop_mutex_);

  /// Observability snapshot; callable from any thread at any time. The
  /// stats mutex is held only long enough to copy the rings/histogram —
  /// percentile extraction happens after release, so Stats() never
  /// stalls the workers' per-batch recording.
  ServerStats Stats() const GENCLUS_EXCLUDES(stats_mutex_);

  /// Replaces the served model. Validates the replacement with
  /// Model::ValidateForServing (it may cover more nodes than the network,
  /// never fewer; K must equal the current model's — SubmitBatch
  /// preallocates K-wide result rows at admission, before knowing which
  /// model will answer). On success the new model is published
  /// immediately: micro-batches already dequeued finish on the model they
  /// pinned, every batch dequeued afterwards plans against the new one.
  /// Never blocks request execution; callable from any thread, including
  /// concurrently with Submit/SubmitBatch/Stats.
  Status SwapModel(std::shared_ptr<const Model> model)
      GENCLUS_EXCLUDES(model_mutex_);
  Status SwapModel(Model model) GENCLUS_EXCLUDES(model_mutex_);

  /// Snapshot of the currently served model (keeps it alive even across
  /// a concurrent swap) and its version (1 = creation model).
  std::shared_ptr<const Model> model() const GENCLUS_EXCLUDES(model_mutex_);
  uint64_t model_version() const GENCLUS_EXCLUDES(model_mutex_);
  size_t num_workers() const { return workers_.size(); }
  const ServerOptions& options() const { return options_; }

 private:
  // A whole-batch submission being reassembled from its scattered
  // per-query completions; the last completion fulfills the promise.
  struct BatchCollector;

  // One published model snapshot: the model, the planner built against it
  // (Plan is const — one planner is shared by every worker on that
  // version), the monotonically increasing version and the content
  // fingerprint. Immutable after publication; lifetime managed by
  // shared_ptr so in-flight batches outlive a swap safely.
  struct VersionedModel;

  // One admitted query in flight: delivered either through its own
  // promise (Submit) or into a collector slot (SubmitBatch).
  struct Request {
    NewObjectQuery query;
    std::promise<QueryResult> promise;
    std::shared_ptr<BatchCollector> collector;
    size_t slot = 0;
    size_t num_links = 0;
    size_t num_observations = 0;
    Deadline deadline;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  Server(const Network* network, std::shared_ptr<const VersionedModel> first,
         ServerOptions options);

  // The model snapshot a worker pins for one micro-batch.
  std::shared_ptr<const VersionedModel> CurrentModel() const
      GENCLUS_EXCLUDES(model_mutex_);

  // The deadline a submission actually carries: the explicit one, or the
  // options default when the explicit one is infinite.
  Deadline EffectiveDeadline(Deadline deadline) const;
  // Deadline admission: kDeadlineExceeded when already expired, or when
  // cost_based_rejection's EWMA prediction says the budget cannot be met.
  Status CheckDeadlineAdmissible(
      const Deadline& deadline,
      std::chrono::steady_clock::time_point now) const;
  // Lock-free reads of the admission-prediction EWMAs (microseconds).
  double PredictedQueueWaitMicros() const;
  double PredictedExecMicros() const;
  // Steps current_iterations_ one sweep down (overload) or up (recovery)
  // per executed micro-batch, between min_inference_iterations and
  // inference_iterations, with the configured hysteresis gap.
  void UpdateDegradation(double queue_wait_ewma_us);

  bool Enqueue(Request request, Status* rejection);
  void WorkerLoop();
  void Deliver(Request& request, const InferenceResult& result, size_t row,
               bool degraded, uint64_t model_version,
               double plan_share_seconds, double exec_share_seconds,
               std::chrono::steady_clock::time_point dequeued_at,
               std::chrono::steady_clock::time_point now);
  // Fails one dequeued-but-expired request with kDeadlineExceeded.
  void Shed(Request& request,
            std::chrono::steady_clock::time_point dequeued_at);
  // Fails one live request with `status` (non-draining Stop's kCancelled,
  // or kInternal after a caught execution exception), counting it in
  // `counter` before the promise is fulfilled.
  void Fail(Request& request, Status status, std::atomic<size_t>* counter);
  static void CompleteCollectorSlot(BatchCollector& collector, size_t slot,
                                    Status status, const double* membership,
                                    size_t num_clusters, uint32_t hard_label,
                                    bool degraded, uint64_t model_version,
                                    size_t num_links, size_t num_observations,
                                    double plan_share_seconds,
                                    double exec_share_seconds);

  // options_, network_ and num_clusters_ are written only during
  // construction, before the worker threads start; they need no guard.
  // (num_clusters_ is cached because rejection/shed paths need K without
  // taking the model snapshot, and SwapModel pins it anyway.)
  ServerOptions options_;
  const Network* network_;
  size_t num_clusters_;
  BoundedQueue<Request> queue_;  // internally synchronized
  std::vector<std::thread> workers_;

  // The served model, behind a short mutex: writers (SwapModel) publish a
  // new snapshot, readers (workers, Stats, SubmitBatch) copy the
  // shared_ptr and release. Never held across plan/execute.
  mutable Mutex model_mutex_;
  std::shared_ptr<const VersionedModel> current_model_
      GENCLUS_GUARDED_BY(model_mutex_);
  std::atomic<size_t> swaps_{0};

  // Stop() coordination: set before Close() so a non-draining stop makes
  // workers cancel instead of executing what they pop.
  std::atomic<bool> cancel_pending_{false};
  Mutex stop_mutex_;
  bool stopped_ GENCLUS_GUARDED_BY(stop_mutex_) = false;

  // Stats: counters are atomics (hot, touched per request); the latency
  // sample rings and histogram are guarded by stats_mutex_ and touched
  // once per micro-batch.
  std::atomic<size_t> accepted_{0};
  std::atomic<size_t> rejected_{0};
  std::atomic<size_t> deadline_rejected_{0};
  std::atomic<size_t> completed_{0};
  std::atomic<size_t> cancelled_{0};
  std::atomic<size_t> deadline_shed_{0};
  std::atomic<size_t> degraded_{0};
  std::atomic<size_t> batches_{0};
  // Degradation controller state: the sweep count workers use right now.
  std::atomic<size_t> current_iterations_;
  // Admission-prediction EWMAs, published as bit-cast doubles so Submit
  // reads them lock-free; written by workers under stats_mutex_ (the
  // mutex serializes read-modify-write, the atomic publishes the value).
  std::atomic<uint64_t> queue_wait_ewma_bits_{0};
  std::atomic<uint64_t> exec_ewma_bits_{0};
  struct SampleRing {
    std::vector<double> samples;  // microseconds
    size_t next = 0;
    void Add(double us);
  };
  mutable Mutex stats_mutex_;
  SampleRing queue_wait_us_ GENCLUS_GUARDED_BY(stats_mutex_);
  SampleRing plan_us_ GENCLUS_GUARDED_BY(stats_mutex_);
  SampleRing exec_us_ GENCLUS_GUARDED_BY(stats_mutex_);
  SampleRing end_to_end_us_ GENCLUS_GUARDED_BY(stats_mutex_);
  std::vector<size_t> batch_size_histogram_ GENCLUS_GUARDED_BY(stats_mutex_);
};

}  // namespace genclus
