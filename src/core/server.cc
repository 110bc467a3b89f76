#include "core/server.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/mutex.h"
#include "common/string_util.h"

namespace genclus {

namespace {

// Latency rings keep the most recent samples only: percentiles reflect
// current behavior, memory stays bounded under sustained traffic.
constexpr size_t kMaxLatencySamples = 8192;

// Smoothing of the admission-prediction EWMAs (queue wait, batch exec).
// One sample per micro-batch: 0.25 converges in a handful of batches yet
// rides out single-batch outliers.
constexpr double kEwmaAlpha = 0.25;

// Least scheduling slack a deadline-capped linger leaves before the
// request's latest start (see WorkerLoop's linger_cap).
constexpr int64_t kMinLingerSlackUs = 1000;

// Largest ServerOptions::max_batch that Validate accepts.
constexpr size_t kMaxBatchCeiling = size_t{1} << 16;

// Nearest-rank percentile, reordering `samples` in place. Successive
// calls on the same scratch buffer are fine: nth_element needs no
// pre-existing order.
double Percentile(std::vector<double>& samples, double q) {
  const size_t rank = std::min(
      samples.size() - 1,
      static_cast<size_t>(q * static_cast<double>(samples.size())));
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

// Takes its scratch copy by value; Stats() passes ring snapshots taken
// under stats_mutex_, so the nth_element work here runs unlocked.
LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  out.max_us = *std::max_element(samples.begin(), samples.end());
  out.p50_us = Percentile(samples, 0.50);
  out.p90_us = Percentile(samples, 0.90);
  out.p99_us = Percentile(samples, 0.99);
  return out;
}

double SecondsBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Folds one sample into a bit-cast-published EWMA and returns the new
// value. Callers serialize the read-modify-write (the workers run it
// under stats_mutex_); the atomic is only the lock-free publication
// channel for Submit-side readers. Zero bits = no samples yet, so the
// first sample seeds the average instead of decaying from 0.
double FoldEwma(std::atomic<uint64_t>* bits, double sample_us) {
  const double prev =
      std::bit_cast<double>(bits->load(std::memory_order_relaxed));
  const double next =
      prev == 0.0 ? sample_us : prev + kEwmaAlpha * (sample_us - prev);
  bits->store(std::bit_cast<uint64_t>(next), std::memory_order_relaxed);
  return next;
}

}  // namespace

Status ServerOptions::Validate() const {
  if (queue_capacity < 1) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  // The ceiling bounds the batch-size histogram, which has max_batch + 1
  // slots: SIZE_MAX wraps it to none and 2^40 cannot be allocated. It is
  // 1,024 times the default, far past where coalescing stops paying.
  if (max_batch < 1 || max_batch > kMaxBatchCeiling) {
    return Status::InvalidArgument(
        StrFormat("max_batch must be in [1, %zu]", kMaxBatchCeiling));
  }
  if (min_inference_iterations < 1 ||
      min_inference_iterations > ServeDefaults::kInferenceIterations) {
    return Status::InvalidArgument(StrFormat(
        "min_inference_iterations must be in [1, %zu]",
        ServeDefaults::kInferenceIterations));
  }
  if (default_timeout_us < 0) {
    return Status::InvalidArgument("default_timeout_us must be >= 0");
  }
  if (degrade_queue_wait_us < 0 || recover_queue_wait_us < 0) {
    return Status::InvalidArgument(
        "degradation thresholds must be >= 0");
  }
  if (degrade_queue_wait_us > 0 && recover_queue_wait_us > 0 &&
      recover_queue_wait_us >= degrade_queue_wait_us) {
    return Status::InvalidArgument(
        "recover_queue_wait_us must be below degrade_queue_wait_us "
        "(the hysteresis gap)");
  }
  return Status::OK();
}

// One published model snapshot (see server.h). `core` is built against
// `model` before publication and is immutable, so every worker on this
// version plans and executes on it without synchronization.
struct Server::VersionedModel {
  std::shared_ptr<const Model> model;
  ServeCore core;
  uint64_t version;
  uint64_t fingerprint;

  VersionedModel(const Network* network, std::shared_ptr<const Model> m,
                 uint64_t v)
      : model(std::move(m)),
        core(network, model.get()),
        version(v),
        fingerprint(model->Fingerprint()) {}
};

// Whole-batch reassembly state. The result is preallocated at submit time
// (zero membership rows, kNoHardLabel) and each completion fills its slot;
// `remaining` counts down under `mutex` and the thread that takes it to
// zero moves the result out (still under the lock) and fulfills the
// promise after releasing it. Rejected slots count down too, so the batch
// future always completes. The promise itself needs no guard: get_future
// runs once before the collector is shared, and set_value runs once, on
// the single thread that observed remaining hit zero.
struct Server::BatchCollector {
  Mutex mutex;
  size_t remaining GENCLUS_GUARDED_BY(mutex) = 0;
  InferenceResult result GENCLUS_GUARDED_BY(mutex);
  std::promise<InferenceResult> promise;
};

void Server::SampleRing::Add(double us) {
  if (samples.size() < kMaxLatencySamples) {
    samples.push_back(us);
    return;
  }
  samples[next] = us;
  next = (next + 1) % kMaxLatencySamples;
}

Result<std::unique_ptr<Server>> Server::Create(const Network* network,
                                               Model model,
                                               ServerOptions options) {
  return Create(network, std::make_shared<const Model>(std::move(model)),
                options);
}

Result<std::unique_ptr<Server>> Server::Create(
    const Network* network, std::shared_ptr<const Model> model,
    ServerOptions options) {
  if (network == nullptr) {
    return Status::InvalidArgument("network must not be null");
  }
  if (model == nullptr) {
    return Status::InvalidArgument("model must not be null");
  }
  GENCLUS_RETURN_IF_ERROR(options.Validate());
  GENCLUS_RETURN_IF_ERROR(model->ValidateAgainst(*network));
  auto first = std::make_shared<const VersionedModel>(
      network, std::move(model), /*v=*/1);
  return std::unique_ptr<Server>(new Server(network, std::move(first),
                                            options));
}

Server::Server(const Network* network,
               std::shared_ptr<const VersionedModel> first,
               ServerOptions options)
    : options_(options),
      network_(network),
      num_clusters_(first->model->num_clusters()),
      queue_(options.queue_capacity),
      current_model_(std::move(first)),
      current_iterations_(ServeDefaults::kInferenceIterations),
      batch_size_histogram_(options.max_batch + 1, 0) {
  size_t num_workers = options_.num_workers;
  if (num_workers == 0) {
    num_workers = std::max<unsigned>(1, std::thread::hardware_concurrency());
  }
  options_.num_workers = num_workers;
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Server::~Server() { Stop(); }

void Server::Stop() {
  MutexLock lock(stop_mutex_);
  if (stopped_) return;
  stopped_ = true;
  if (!options_.drain_on_stop) cancel_pending_.store(true);
  // Close first: admissions stop, workers drain what is left (executing
  // or cancelling it), then their PopBatch returns 0 and they exit.
  queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::shared_ptr<const Server::VersionedModel> Server::CurrentModel() const {
  MutexLock lock(model_mutex_);
  return current_model_;
}

Status Server::SwapModel(std::shared_ptr<const Model> model) {
  if (model == nullptr) {
    return Status::InvalidArgument("model must not be null");
  }
  // ValidateForServing, not ValidateAgainst: a refreshed model trained on
  // a grown dataset legitimately covers more nodes than the serving
  // network. K is pinned because SubmitBatch preallocates K-wide result
  // rows at admission, before knowing which model will answer.
  GENCLUS_RETURN_IF_ERROR(model->ValidateForServing(*network_));
  if (model->num_clusters() != num_clusters_) {
    return Status::InvalidArgument(StrFormat(
        "swapped model has %zu clusters, server was created with %zu",
        model->num_clusters(), num_clusters_));
  }
  // Build the snapshot (core + fingerprint — the expensive part) outside
  // the lock; only version assignment and publication are serialized.
  auto replacement =
      std::make_shared<VersionedModel>(network_, std::move(model), /*v=*/0);
  // Error-injection site: a build that throws leaves the served version
  // untouched, since nothing is published before the snapshot is whole.
  GENCLUS_FAILPOINT("server.swap_model",
                    throw std::runtime_error(
                        "injected server.swap_model build failure"));
  {
    MutexLock lock(model_mutex_);
    replacement->version = current_model_->version + 1;
    current_model_ = std::move(replacement);
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Server::SwapModel(Model model) {
  return SwapModel(std::make_shared<const Model>(std::move(model)));
}

std::shared_ptr<const Model> Server::model() const {
  return CurrentModel()->model;
}

uint64_t Server::model_version() const { return CurrentModel()->version; }

Deadline Server::EffectiveDeadline(Deadline deadline) const {
  if (!deadline.is_infinite()) return deadline;
  if (options_.default_timeout_us > 0) {
    return Deadline::AfterMicros(options_.default_timeout_us);
  }
  return Deadline::Infinite();
}

double Server::PredictedQueueWaitMicros() const {
  return std::bit_cast<double>(
      queue_wait_ewma_bits_.load(std::memory_order_relaxed));
}

double Server::PredictedExecMicros() const {
  return std::bit_cast<double>(
      exec_ewma_bits_.load(std::memory_order_relaxed));
}

Status Server::CheckDeadlineAdmissible(
    const Deadline& deadline,
    std::chrono::steady_clock::time_point now) const {
  if (deadline.is_infinite()) return Status::OK();
  if (deadline.Expired(now)) {
    return Status::DeadlineExceeded("deadline already expired at submit");
  }
  if (!options_.cost_based_rejection) return Status::OK();
  // Predicted service time = expected queue wait + expected batch
  // execution; a request whose remaining budget is smaller than that is
  // near-certain to be shed at dequeue anyway, so reject it before it
  // occupies a queue slot and delays requests that CAN meet theirs.
  const double predicted_us =
      PredictedQueueWaitMicros() + PredictedExecMicros();
  const int64_t remaining_us = deadline.RemainingMicros(now);
  if (predicted_us > static_cast<double>(remaining_us)) {
    return Status::DeadlineExceeded(
        StrFormat("predicted service time %.0fus exceeds remaining "
                  "deadline budget %lldus",
                  predicted_us, static_cast<long long>(remaining_us)));
  }
  return Status::OK();
}

void Server::UpdateDegradation(double queue_wait_ewma_us) {
  if (options_.degrade_queue_wait_us <= 0) return;
  const double enter = static_cast<double>(options_.degrade_queue_wait_us);
  const double exit = options_.recover_queue_wait_us > 0
                          ? static_cast<double>(options_.recover_queue_wait_us)
                          : enter / 4.0;
  size_t current = current_iterations_.load(std::memory_order_relaxed);
  if (queue_wait_ewma_us >= enter &&
      current > options_.min_inference_iterations) {
    // CAS, not a store: concurrent workers observing the same overload
    // step the sweep count by at most one per observation.
    current_iterations_.compare_exchange_strong(current, current - 1,
                                                std::memory_order_relaxed);
  } else if (queue_wait_ewma_us <= exit &&
             current < ServeDefaults::kInferenceIterations) {
    current_iterations_.compare_exchange_strong(current, current + 1,
                                                std::memory_order_relaxed);
  }
}

bool Server::Enqueue(Request request, Status* rejection) {
  // Count the admission before the request becomes visible to workers, so
  // no worker can count its completion first; roll it back if the push
  // fails. Stats() relies on this order (see ServerStats).
  accepted_.fetch_add(1, std::memory_order_relaxed);
  if (queue_.TryPush(std::move(request))) return true;
  accepted_.fetch_sub(1, std::memory_order_relaxed);
  rejected_.fetch_add(1, std::memory_order_relaxed);
  *rejection = queue_.closed()
                   ? Status::FailedPrecondition("server is stopped")
                   : Status::ResourceExhausted(StrFormat(
                         "request queue full (capacity %zu)",
                         queue_.capacity()));
  return false;
}

Result<std::future<QueryResult>> Server::Submit(NewObjectQuery query) {
  return Submit(std::move(query), Deadline::Infinite());
}

Result<std::future<QueryResult>> Server::Submit(NewObjectQuery query,
                                                Deadline deadline) {
  Request request;
  request.query = std::move(query);
  request.deadline = EffectiveDeadline(deadline);
  request.enqueued_at = std::chrono::steady_clock::now();
  Status admission =
      CheckDeadlineAdmissible(request.deadline, request.enqueued_at);
  if (!admission.ok()) {
    deadline_rejected_.fetch_add(1, std::memory_order_relaxed);
    return admission;
  }
  std::future<QueryResult> future = request.promise.get_future();
  Status rejection;
  if (!Enqueue(std::move(request), &rejection)) return rejection;
  return future;
}

std::future<InferenceResult> Server::SubmitBatch(
    std::vector<NewObjectQuery> queries) {
  return SubmitBatch(std::move(queries), Deadline::Infinite());
}

std::future<InferenceResult> Server::SubmitBatch(
    std::vector<NewObjectQuery> queries, Deadline deadline) {
  auto collector = std::make_shared<BatchCollector>();
  const size_t n = queries.size();
  const size_t num_clusters = num_clusters_;
  InferenceResult empty_result;
  {
    // The collector is not shared yet, but its state is guarded — take
    // the (uncontended) lock so the annotations hold unconditionally.
    MutexLock lock(collector->mutex);
    collector->remaining = n;
    collector->result.statuses.assign(n, Status::OK());
    collector->result.memberships = Matrix(n, num_clusters);
    collector->result.hard_labels.assign(n, kNoHardLabel);
    collector->result.model_versions.assign(n, 0);
    collector->result.report.batch_size = n;
    if (n == 0) empty_result = std::move(collector->result);
  }
  std::future<InferenceResult> future = collector->promise.get_future();
  if (n == 0) {
    collector->promise.set_value(std::move(empty_result));
    return future;
  }
  const Deadline effective = EffectiveDeadline(deadline);
  const auto now = std::chrono::steady_clock::now();
  // One admission verdict for the whole batch: every query carries the
  // same deadline, and the prediction would not move between iterations.
  const Status admission = CheckDeadlineAdmissible(effective, now);
  for (size_t i = 0; i < n; ++i) {
    if (!admission.ok()) {
      deadline_rejected_.fetch_add(1, std::memory_order_relaxed);
      CompleteCollectorSlot(*collector, i, admission,
                            /*membership=*/nullptr, num_clusters,
                            kNoHardLabel, /*degraded=*/false,
                            /*model_version=*/0, 0, 0, 0.0, 0.0);
      continue;
    }
    Request request;
    request.query = std::move(queries[i]);
    request.collector = collector;
    request.slot = i;
    request.num_links = request.query.links.size();
    request.num_observations = request.query.observations.size();
    request.deadline = effective;
    request.enqueued_at = now;
    Status rejection;
    if (!Enqueue(std::move(request), &rejection)) {
      // The request (and its collector reference) was dropped by the
      // queue; complete the slot right here so the batch future still
      // resolves.
      CompleteCollectorSlot(*collector, i, std::move(rejection),
                            /*membership=*/nullptr, num_clusters,
                            kNoHardLabel, /*degraded=*/false,
                            /*model_version=*/0, 0, 0, 0.0, 0.0);
    }
  }
  return future;
}

void Server::CompleteCollectorSlot(BatchCollector& collector, size_t slot,
                                   Status status, const double* membership,
                                   size_t num_clusters, uint32_t hard_label,
                                   bool degraded, uint64_t model_version,
                                   size_t num_links, size_t num_observations,
                                   double plan_share_seconds,
                                   double exec_share_seconds) {
  bool last = false;
  InferenceResult finished;
  {
    MutexLock lock(collector.mutex);
    const bool ok = status.ok();
    collector.result.statuses[slot] = std::move(status);
    if (membership != nullptr) {
      std::memcpy(collector.result.memberships.Row(slot), membership,
                  num_clusters * sizeof(double));
    }
    collector.result.hard_labels[slot] = hard_label;
    collector.result.model_versions[slot] = model_version;
    if (ok) {
      collector.result.report.valid_queries += 1;
      collector.result.report.total_links += num_links;
      collector.result.report.total_observations += num_observations;
      if (degraded) collector.result.report.degraded_queries += 1;
    }
    collector.result.report.plan_seconds += plan_share_seconds;
    collector.result.report.exec_seconds += exec_share_seconds;
    last = (--collector.remaining == 0);
    // Move the result out while still holding the guard; the promise is
    // fulfilled after release so no waiter ever wakes into our lock.
    if (last) finished = std::move(collector.result);
  }
  if (last) collector.promise.set_value(std::move(finished));
}

void Server::Deliver(Request& request, const InferenceResult& result,
                     size_t row, bool degraded, uint64_t model_version,
                     double plan_share_seconds, double exec_share_seconds,
                     std::chrono::steady_clock::time_point dequeued_at,
                     std::chrono::steady_clock::time_point now) {
  // Counted BEFORE the promise is fulfilled: a caller that just resolved
  // its future must see stats that already include that query. Release
  // pairs with Stats()' acquire load (see ServerStats).
  completed_.fetch_add(1, std::memory_order_release);
  const Status& status = result.statuses[row];
  const bool mark_degraded = degraded && status.ok();
  if (mark_degraded) degraded_.fetch_add(1, std::memory_order_relaxed);
  const size_t num_clusters = result.memberships.cols();
  if (request.collector != nullptr) {
    CompleteCollectorSlot(
        *request.collector, request.slot, status,
        status.ok() ? result.memberships.Row(row) : nullptr, num_clusters,
        result.hard_labels[row], mark_degraded, model_version,
        request.num_links, request.num_observations, plan_share_seconds,
        exec_share_seconds);
  } else {
    QueryResult answer;
    answer.status = status;
    if (status.ok()) {
      answer.membership.assign(result.memberships.Row(row),
                               result.memberships.Row(row) + num_clusters);
    }
    answer.hard_label = result.hard_labels[row];
    answer.degraded = mark_degraded;
    answer.queue_seconds = SecondsBetween(request.enqueued_at, dequeued_at);
    answer.total_seconds = SecondsBetween(request.enqueued_at, now);
    answer.model_version = model_version;
    request.promise.set_value(std::move(answer));
  }
}

void Server::Shed(Request& request,
                  std::chrono::steady_clock::time_point dequeued_at) {
  deadline_shed_.fetch_add(1, std::memory_order_release);  // before fulfillment
  Status status =
      Status::DeadlineExceeded("deadline expired before execution");
  if (request.collector != nullptr) {
    CompleteCollectorSlot(*request.collector, request.slot,
                          std::move(status), /*membership=*/nullptr,
                          num_clusters_, kNoHardLabel,
                          /*degraded=*/false, /*model_version=*/0, 0, 0,
                          0.0, 0.0);
  } else {
    QueryResult answer;
    answer.status = std::move(status);
    answer.queue_seconds = SecondsBetween(request.enqueued_at, dequeued_at);
    answer.total_seconds = answer.queue_seconds;
    request.promise.set_value(std::move(answer));
  }
}

void Server::Fail(Request& request, Status status,
                  std::atomic<size_t>* counter) {
  counter->fetch_add(1, std::memory_order_release);  // before fulfillment
  if (request.collector != nullptr) {
    CompleteCollectorSlot(*request.collector, request.slot,
                          std::move(status), /*membership=*/nullptr,
                          num_clusters_, kNoHardLabel,
                          /*degraded=*/false, /*model_version=*/0, 0, 0,
                          0.0, 0.0);
  } else {
    QueryResult answer;
    answer.status = std::move(status);
    request.promise.set_value(std::move(answer));
  }
}

// The admission loop body each worker runs: coalesce queued queries into
// one micro-batch (linger capped by the tightest member deadline), shed
// members whose deadline already passed, plan + execute the rest on the
// pinned snapshot's ServeCore (immutable, each Execute with its own
// scratch — workers share no mutable execution state, so micro-batches
// run concurrently), deliver per-query answers, record stats and feed the
// admission/degradation controllers. A batch executes serially: with
// num_workers batches in flight the tier already saturates the cores
// batch-wise, and serial execution keeps per-batch latency
// deterministic. An execution exception fails only that batch
// (kInternal) — the worker keeps serving.
//
// Model swaps are observed per batch: the worker pins the current
// VersionedModel snapshot before planning, so a SwapModel racing this
// batch takes effect at the NEXT dequeue — never mid-batch.
void Server::WorkerLoop() {
  std::vector<Request> batch;
  std::vector<Request> live;
  std::vector<NewObjectQuery> queries;
  std::vector<double> queue_waits_us;
  const std::chrono::microseconds linger(options_.max_wait_us);
  // A tight-deadline member caps its batch's linger: coalescing must end
  // early enough that the predicted execution still fits that member's
  // remaining budget. The cap leaves scheduling slack before the latest
  // start (deadline minus predicted execution) for a worker that wakes
  // late: half the time from the request's enqueue to that start, and
  // at least kMinLingerSlackUs. A fixed slack is outrun by an ordinary
  // late wake-up on a loaded host, which then sheds a request the worker
  // could still have answered; one in proportion to the budget is not.
  const auto linger_cap = [this](const Request& request) {
    if (request.deadline.is_infinite()) {
      return std::chrono::steady_clock::time_point::max();
    }
    const auto latest_start =
        request.deadline.when() -
        std::chrono::microseconds(
            static_cast<int64_t>(PredictedExecMicros()));
    const auto slack = std::max<std::chrono::steady_clock::duration>(
        std::chrono::microseconds(kMinLingerSlackUs),
        (latest_start - request.enqueued_at) / 2);
    return latest_start - slack;
  };
  while (queue_.PopBatch(&batch, options_.max_batch, linger, linger_cap) >
         0) {
    // Delay-only site: tests wedge a worker here to force queue-wait
    // buildup (cost-based rejection, degradation entry).
    GENCLUS_FAILPOINT("server.worker_batch");
    const auto dequeued_at = std::chrono::steady_clock::now();
    if (cancel_pending_.load(std::memory_order_relaxed)) {
      for (Request& request : batch) {
        Fail(request, Status::Cancelled("server stopped before execution"),
             &cancelled_);
      }
      continue;
    }
    // Shed pass: drop members that cannot meet their deadline anymore —
    // expired outright, or expiring within the predicted execution time
    // (an answer delivered after its deadline helps nobody and delays
    // every request queued behind it).
    const auto exec_budget = std::chrono::microseconds(
        static_cast<int64_t>(PredictedExecMicros()));
    live.clear();
    queue_waits_us.clear();
    double max_queue_wait_us = 0.0;
    for (Request& request : batch) {
      const double wait_us =
          SecondsBetween(request.enqueued_at, dequeued_at) * 1e6;
      queue_waits_us.push_back(wait_us);
      max_queue_wait_us = std::max(max_queue_wait_us, wait_us);
      if (request.deadline.Expired(dequeued_at + exec_budget)) {
        Shed(request, dequeued_at);
      } else {
        live.push_back(std::move(request));
      }
    }
    const size_t iterations =
        current_iterations_.load(std::memory_order_relaxed);
    const bool degraded = iterations < ServeDefaults::kInferenceIterations;
    InferPlan plan;
    InferenceResult result;
    Status exec_error;
    uint64_t batch_model_version = 0;
    if (!live.empty()) {
      // Pin the model snapshot this whole batch runs on; a concurrent
      // SwapModel affects only later dequeues.
      const std::shared_ptr<const VersionedModel> pinned = CurrentModel();
      batch_model_version = pinned->version;
      queries.clear();
      queries.reserve(live.size());
      for (Request& request : live) {
        queries.push_back(std::move(request.query));
      }
      plan = pinned->core.Plan(queries);
      try {
        // Error-injection site: proves a throwing Execute fails its
        // batch with kInternal while the worker keeps serving.
        GENCLUS_FAILPOINT("server.execute",
                          throw std::runtime_error(
                              "injected server.execute failure"));
        result = pinned->core.Execute(plan, /*pool=*/nullptr, iterations);
      } catch (const std::exception& e) {
        exec_error = Status::Internal(
            StrFormat("batch execution failed: %s", e.what()));
      } catch (...) {
        exec_error = Status::Internal("batch execution failed");
      }
    }
    const auto done_at = std::chrono::steady_clock::now();
    const bool executed = !live.empty() && exec_error.ok();
    if (executed) batches_.fetch_add(1, std::memory_order_relaxed);
    // Stats first, delivery second: the moment a future resolves, the
    // histogram, rings and EWMAs already cover its micro-batch. The
    // queue-wait EWMA folds every dequeue (even all-shed batches) so the
    // admission controller sees the overload that caused the shedding.
    double queue_wait_ewma_us = 0.0;
    {
      MutexLock lock(stats_mutex_);
      for (const double wait_us : queue_waits_us) {
        queue_wait_us_.Add(wait_us);
      }
      queue_wait_ewma_us =
          FoldEwma(&queue_wait_ewma_bits_, max_queue_wait_us);
      if (executed) {
        batch_size_histogram_[live.size()] += 1;
        plan_us_.Add(plan.plan_seconds * 1e6);
        exec_us_.Add(result.report.exec_seconds * 1e6);
        FoldEwma(&exec_ewma_bits_, result.report.exec_seconds * 1e6);
        for (const Request& request : live) {
          end_to_end_us_.Add(
              SecondsBetween(request.enqueued_at, done_at) * 1e6);
        }
      }
    }
    UpdateDegradation(queue_wait_ewma_us);
    if (live.empty()) continue;
    if (!exec_error.ok()) {
      for (Request& request : live) {
        Fail(request, exec_error, &completed_);
      }
      continue;
    }
    // Per-query attribution of the shared plan/exec cost: equal shares,
    // so whole-batch reassembly sums back to the micro-batch totals.
    const double share = 1.0 / static_cast<double>(live.size());
    const double plan_share = plan.plan_seconds * share;
    const double exec_share = result.report.exec_seconds * share;
    for (size_t i = 0; i < live.size(); ++i) {
      Deliver(live[i], result, i, degraded, batch_model_version, plan_share,
              exec_share, dequeued_at, done_at);
    }
  }
}

ServerStats Server::Stats() const {
  ServerStats out;
  // Outcomes first, admissions last: each acquire load below sees every
  // admission counted before the requests it reports finished, so the
  // snapshot never shows more finished requests than admitted ones.
  out.completed = completed_.load(std::memory_order_acquire);
  out.cancelled = cancelled_.load(std::memory_order_acquire);
  out.deadline_shed = deadline_shed_.load(std::memory_order_acquire);
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.deadline_rejected =
      deadline_rejected_.load(std::memory_order_relaxed);
  out.degraded = degraded_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.current_inference_iterations =
      current_iterations_.load(std::memory_order_relaxed);
  out.predicted_queue_wait_us = PredictedQueueWaitMicros();
  out.predicted_exec_us = PredictedExecMicros();
  out.queue_depth = queue_.size();
  out.queue_high_water = queue_.high_water();
  {
    const std::shared_ptr<const VersionedModel> current = CurrentModel();
    out.model_version = current->version;
    out.model_fingerprint = current->fingerprint;
  }
  out.model_swaps = swaps_.load(std::memory_order_relaxed);
  // Hold stats_mutex_ only for the copies. The old code ran the
  // nth_element percentile extraction (4 rings x up to 8192 samples)
  // inside this critical section, stalling every worker's per-batch
  // stats recording while a monitor polled Stats(); annotating the guard
  // made the oversized section obvious. Summarize now runs on the
  // snapshots after release.
  std::vector<double> queue_wait_snapshot;
  std::vector<double> plan_snapshot;
  std::vector<double> exec_snapshot;
  std::vector<double> end_to_end_snapshot;
  {
    MutexLock lock(stats_mutex_);
    out.batch_size_histogram = batch_size_histogram_;
    queue_wait_snapshot = queue_wait_us_.samples;
    plan_snapshot = plan_us_.samples;
    exec_snapshot = exec_us_.samples;
    end_to_end_snapshot = end_to_end_us_.samples;
  }
  out.queue_wait = Summarize(std::move(queue_wait_snapshot));
  out.plan = Summarize(std::move(plan_snapshot));
  out.exec = Summarize(std::move(exec_snapshot));
  out.end_to_end = Summarize(std::move(end_to_end_snapshot));
  return out;
}

}  // namespace genclus
