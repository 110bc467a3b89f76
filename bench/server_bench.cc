// Serving-tier throughput/latency bench for core/server.h. perfbench's
// inference.* layers time the raw Plan/Execute pipeline; this bench
// measures the tier wrapped around it — bounded queue, micro-batching
// admission loop and workers sharing one ServeCore per model snapshot —
// and writes BENCH_server.json.
//
// Phases (weather Setting 1 fixture):
//   serial     one query at a time through Plan/Execute on one thread —
//              the old per-request Submit behavior under its global
//              execution mutex; the baseline qps.
//   saturated  closed-loop flood from 4 producers through a Server with
//              --workers workers; micro-batching + concurrent workers
//              give the tier its throughput. Best-of --reps.
//   poisson    open-loop arrivals at 0.6x the saturated rate; per-query
//              enqueue-to-delivery latency percentiles (p50/p90/p99).
//   overload   open-loop arrivals at 3x the saturated rate against a
//              fresh deadline-carrying server (default_timeout_us set,
//              cost-based rejection + graceful degradation on): the
//              robustness scenario. The tier must shed/reject the excess
//              it cannot serve and keep the answers it does deliver
//              within budget.
//
// Gates (non-zero exit, CI treats as broken build):
//   * zero drift: every membership the server returns is bitwise equal
//     to the per-query InferMembership reference;
//   * speedup: saturated qps >= 2x serial qps — enforced only when the
//     host has >= 4 hardware threads and --workers >= 4 (elsewhere the
//     ratio is printed but not gated);
//   * p99 budget: poisson p99 latency <= max(20ms, 200x the serial
//     per-query time) — generous, but catches lost wakeups and
//     admission-loop stalls outright;
//   * overload p99: among requests that completed under 3x overload,
//     p99 enqueue-to-delivery latency <= the deadline budget — load
//     shedding must protect the served tail, not just drop traffic;
//   * overload accounting: every submission resolves with a definite
//     outcome and the client-side tallies reconcile exactly with
//     ServerStats (submissions == accepted + rejected + deadline_rejected,
//     accepted == completed + cancelled + deadline_shed) — no lost
//     futures under sustained overload;
//   * overload drift: every non-degraded answer stays bitwise equal to
//     the reference even while the tier is shedding and degrading.
//
// Flags: --out FILE (default BENCH_server.json), --small (CI fixture),
//        --reps N (default 5), --workers N (default 4).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/engine.h"
#include "core/server.h"
#include "datagen/weather_generator.h"

namespace {

using namespace genclus;

// Fold-in queries: each new sensor links to 2 * k neighbors over both
// relations and reports readings of both attributes.
std::vector<NewObjectQuery> MakeQueries(const WeatherData& data,
                                        const WeatherConfig& config,
                                        size_t count) {
  Rng rng(29);
  const size_t num_nodes = data.dataset.network.num_nodes();
  std::vector<NewObjectQuery> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    NewObjectQuery q;
    for (size_t j = 0; j < config.k_nearest; ++j) {
      q.links.push_back({static_cast<NodeId>(rng.UniformIndex(num_nodes)),
                         data.tt_link, 1.0});
      q.links.push_back({static_cast<NodeId>(rng.UniformIndex(num_nodes)),
                         data.tp_link, 1.0});
    }
    const WeatherPattern& pattern =
        config.patterns[i % config.patterns.size()];
    for (size_t j = 0; j + 1 < config.observations_per_sensor; ++j) {
      q.observations.push_back(NewObjectObservation::Numerical(
          0, rng.Gaussian(pattern.temperature_mean,
                          config.pattern_stddev)));
    }
    q.observations.push_back(NewObjectObservation::Numerical(
        1, rng.Gaussian(pattern.precipitation_mean,
                        config.pattern_stddev)));
    queries.push_back(std::move(q));
  }
  return queries;
}

// Bitwise comparison against the precomputed reference; returns false and
// reports on the first mismatch (zero drift is a gate, not a tolerance).
bool BitwiseEqualsReference(const QueryResult& answer,
                            const std::vector<double>& reference,
                            const char* phase) {
  if (!answer.ok()) {
    std::fprintf(stderr, "FAIL(%s): query errored: %s\n", phase,
                 answer.status.ToString().c_str());
    return false;
  }
  if (answer.membership.size() != reference.size()) {
    std::fprintf(stderr, "FAIL(%s): membership size mismatch\n", phase);
    return false;
  }
  for (size_t k = 0; k < reference.size(); ++k) {
    if (answer.membership[k] != reference[k]) {
      std::fprintf(stderr,
                   "FAIL(%s): membership drifted from InferMembership "
                   "(k=%zu, got %.17g want %.17g)\n",
                   phase, k, answer.membership[k], reference[k]);
      return false;
    }
  }
  return true;
}

double PercentileUs(std::vector<double>* sorted_us, double p) {
  if (sorted_us->empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted_us->size())));
  return (*sorted_us)[std::min(sorted_us->size(), std::max<size_t>(rank, 1)) -
                      1];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace genclus::bench;
  Flags flags = Flags::Parse(argc, argv);
  const bool small = flags.GetBool("small", false);
  const size_t reps = static_cast<size_t>(flags.GetInt("reps", 5));
  const size_t workers = static_cast<size_t>(flags.GetInt("workers", 4));
  const std::string out_path = flags.GetString("out", "BENCH_server.json");

  WeatherConfig wconfig = WeatherConfig::Setting1();
  wconfig.num_temperature_sensors = small ? 250 : 1000;
  wconfig.num_precipitation_sensors = small ? 60 : 250;
  wconfig.observations_per_sensor = 5;
  wconfig.seed = 11;
  auto data = GenerateWeatherNetwork(wconfig);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }

  FitOptions fit_options;
  fit_options.attributes = {"temperature", "precipitation"};
  fit_options.config.num_clusters = data->true_membership.cols();
  fit_options.config.outer_iterations = 2;
  fit_options.config.em_iterations = 10;
  fit_options.config.num_threads = 4;
  fit_options.config.seed = 5;
  auto fit = Engine::Fit(data->dataset, fit_options);
  if (!fit.ok()) {
    std::fprintf(stderr, "Engine::Fit failed: %s\n",
                 fit.status().ToString().c_str());
    return 1;
  }
  const Model model = std::move(fit).value().model;

  constexpr size_t kPoolSize = 64;
  const std::vector<NewObjectQuery> pool =
      MakeQueries(*data, wconfig, kPoolSize);
  std::vector<std::vector<double>> reference(kPoolSize);
  for (size_t i = 0; i < kPoolSize; ++i) {
    auto direct = InferMembership(data->dataset.network, model,
                                  pool[i].links, pool[i].observations);
    if (!direct.ok()) {
      std::fprintf(stderr, "InferMembership failed: %s\n",
                   direct.status().ToString().c_str());
      return 1;
    }
    reference[i] = *std::move(direct);
  }

  const unsigned hardware = std::thread::hardware_concurrency();
  PrintHeader("micro-batching serving tier (Server over Plan/Execute)");
  std::printf("host hardware threads: %u, server workers: %zu\n", hardware,
              workers);

  // --- Phase 1: serial baseline -------------------------------------
  // One query per plan, one thread, strictly sequential: what the old
  // per-request Submit path delivered once its std::async thread hit the
  // engine's global execution mutex.
  const size_t serial_queries = small ? 512 : 2048;
  double serial_qps = 0.0;
  double serial_us_per_query = 0.0;
  {
    EngineOptions options;
    options.num_threads = 1;
    auto engine = Engine::Create(&data->dataset.network, model, options);
    if (!engine.ok()) {
      std::fprintf(stderr, "Engine::Create failed: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    double best_ms = 1e300;
    for (size_t rep = 0; rep < reps + 1; ++rep) {  // first rep = warmup
      WallTimer timer;
      for (size_t i = 0; i < serial_queries; ++i) {
        const NewObjectQuery& q = pool[i % kPoolSize];
        const InferenceResult result =
            engine->Execute(engine->Plan(std::span(&q, 1)));
        if (!result.ok(0)) {
          std::fprintf(stderr, "serial query failed: %s\n",
                       result.statuses[0].ToString().c_str());
          return 1;
        }
      }
      if (rep > 0) best_ms = std::min(best_ms, timer.Millis());
    }
    serial_us_per_query =
        best_ms * 1e3 / static_cast<double>(serial_queries);
    serial_qps = 1e6 / serial_us_per_query;
  }

  // --- Phase 2: saturated server ------------------------------------
  ServerOptions server_options;
  server_options.num_workers = workers;
  server_options.queue_capacity = 4096;
  server_options.max_batch = 64;
  server_options.max_wait_us = 200;
  auto server_or =
      Server::Create(&data->dataset.network, model, server_options);
  if (!server_or.ok()) {
    std::fprintf(stderr, "Server::Create failed: %s\n",
                 server_or.status().ToString().c_str());
    return 1;
  }
  Server& server = *server_or.value();

  bool gates_ok = true;
  const size_t saturation_queries = small ? 2048 : 8192;
  constexpr size_t kProducers = 4;
  double server_qps = 0.0;
  {
    double best_ms = 1e300;
    for (size_t rep = 0; rep < reps; ++rep) {
      std::vector<std::vector<std::pair<size_t, std::future<QueryResult>>>>
          futures(kProducers);
      WallTimer timer;
      std::vector<std::thread> producers;
      for (size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
          const size_t share = saturation_queries / kProducers;
          futures[p].reserve(share);
          for (size_t i = 0; i < share; ++i) {
            const size_t index = (p * share + i) % kPoolSize;
            for (;;) {
              auto submitted = server.Submit(pool[index]);
              if (submitted.ok()) {
                futures[p].emplace_back(index,
                                        std::move(submitted).value());
                break;
              }
              std::this_thread::yield();  // backpressure: retry
            }
          }
        });
      }
      for (std::thread& t : producers) t.join();
      bool rep_ok = true;
      for (auto& produced : futures) {
        for (auto& [index, future] : produced) {
          QueryResult answer = future.get();
          // Zero-drift gate on every completion, every rep.
          rep_ok &= BitwiseEqualsReference(answer, reference[index],
                                           "saturated");
        }
      }
      gates_ok &= rep_ok;
      best_ms = std::min(best_ms, timer.Millis());
    }
    server_qps = static_cast<double>(saturation_queries) / best_ms * 1e3;
  }
  const double speedup = serial_qps > 0.0 ? server_qps / serial_qps : 0.0;
  if (hardware >= 4 && workers >= 4 && speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: saturated server qps %.0f < 2x serial qps %.0f "
                 "(speedup %.2fx) with %u hardware threads\n",
                 server_qps, serial_qps, speedup, hardware);
    gates_ok = false;
  }

  // --- Phase 3: open-loop Poisson arrivals --------------------------
  // 0.6x the saturated rate keeps the queue stable, so the latency
  // distribution reflects service + micro-batch linger, not backlog.
  const size_t poisson_arrivals = small ? 1024 : 4096;
  const double lambda_qps = 0.6 * server_qps;
  std::vector<double> latency_us;
  size_t poisson_rejected = 0;
  {
    Rng rng(83);
    std::vector<std::pair<size_t, std::future<QueryResult>>> futures;
    futures.reserve(poisson_arrivals);
    auto next_arrival = std::chrono::steady_clock::now();
    for (size_t i = 0; i < poisson_arrivals; ++i) {
      const double gap_seconds =
          -std::log(1.0 - rng.Uniform()) / lambda_qps;
      next_arrival += std::chrono::nanoseconds(
          static_cast<int64_t>(gap_seconds * 1e9));
      std::this_thread::sleep_until(next_arrival);
      const size_t index = i % kPoolSize;
      auto submitted = server.Submit(pool[index]);
      if (!submitted.ok()) {
        ++poisson_rejected;  // should not happen at 0.6x capacity
        continue;
      }
      futures.emplace_back(index, std::move(submitted).value());
    }
    for (auto& [index, future] : futures) {
      QueryResult answer = future.get();
      gates_ok &=
          BitwiseEqualsReference(answer, reference[index], "poisson");
      latency_us.push_back(answer.total_seconds * 1e6);
    }
    std::sort(latency_us.begin(), latency_us.end());
  }
  const double p50 = PercentileUs(&latency_us, 50.0);
  const double p90 = PercentileUs(&latency_us, 90.0);
  const double p99 = PercentileUs(&latency_us, 99.0);
  const double p99_budget_us = std::max(20000.0, 200.0 * serial_us_per_query);
  if (p99 > p99_budget_us) {
    std::fprintf(stderr,
                 "FAIL: poisson p99 latency %.0fus exceeds budget %.0fus\n",
                 p99, p99_budget_us);
    gates_ok = false;
  }

  // --- Phase 4: 3x overload with deadlines --------------------------
  // A fresh server (clean stats) that every request enters with a
  // deadline budget, cost-based rejection and graceful degradation
  // armed. Offered load is 3x the measured saturated rate: the tier
  // cannot serve it all, so the gates are about HOW it fails — served
  // tail within budget, exact accounting, no drift on full-sweep
  // answers.
  const double deadline_budget_us = p99_budget_us;
  const size_t overload_arrivals = small ? 2048 : 8192;
  const double overload_lambda_qps = 3.0 * server_qps;
  size_t overload_submissions = 0;
  size_t overload_admitted = 0;
  size_t overload_rejected_full = 0;
  size_t overload_rejected_deadline = 0;
  size_t overload_completed = 0;
  size_t overload_shed = 0;
  size_t overload_degraded = 0;
  std::vector<double> overload_latency_us;
  ServerStats overload_stats;
  {
    ServerOptions overload_options = server_options;
    overload_options.default_timeout_us =
        static_cast<int64_t>(deadline_budget_us);
    overload_options.cost_based_rejection = true;
    overload_options.degrade_queue_wait_us =
        static_cast<int64_t>(deadline_budget_us / 2.0);
    overload_options.recover_queue_wait_us =
        static_cast<int64_t>(deadline_budget_us / 8.0);
    overload_options.min_inference_iterations = 2;
    auto overload_server_or =
        Server::Create(&data->dataset.network, model, overload_options);
    if (!overload_server_or.ok()) {
      std::fprintf(stderr, "Server::Create (overload) failed: %s\n",
                   overload_server_or.status().ToString().c_str());
      return 1;
    }
    Server& overload_server = *overload_server_or.value();

    Rng rng(97);
    std::vector<std::pair<size_t, std::future<QueryResult>>> futures;
    futures.reserve(overload_arrivals);
    auto next_arrival = std::chrono::steady_clock::now();
    for (size_t i = 0; i < overload_arrivals; ++i) {
      const double gap_seconds =
          -std::log(1.0 - rng.Uniform()) / overload_lambda_qps;
      next_arrival += std::chrono::nanoseconds(
          static_cast<int64_t>(gap_seconds * 1e9));
      // A next_arrival already in the past returns immediately, so the
      // offered rate self-corrects toward 3x instead of drifting down.
      std::this_thread::sleep_until(next_arrival);
      const size_t index = i % kPoolSize;
      ++overload_submissions;
      auto submitted = overload_server.Submit(pool[index]);
      if (submitted.ok()) {
        ++overload_admitted;
        futures.emplace_back(index, std::move(submitted).value());
      } else if (submitted.status().code() ==
                 StatusCode::kDeadlineExceeded) {
        ++overload_rejected_deadline;  // cost-based early rejection
      } else if (submitted.status().code() ==
                 StatusCode::kResourceExhausted) {
        ++overload_rejected_full;  // queue at capacity
      } else {
        std::fprintf(stderr, "FAIL(overload): unexpected rejection: %s\n",
                     submitted.status().ToString().c_str());
        gates_ok = false;
      }
    }
    for (auto& [index, future] : futures) {
      QueryResult answer = future.get();  // every admitted future resolves
      if (answer.ok()) {
        ++overload_completed;
        overload_latency_us.push_back(answer.total_seconds * 1e6);
        if (answer.degraded) {
          ++overload_degraded;  // fewer sweeps: exempt from bitwise gate
        } else {
          gates_ok &=
              BitwiseEqualsReference(answer, reference[index], "overload");
        }
      } else if (answer.status.code() == StatusCode::kDeadlineExceeded) {
        ++overload_shed;
      } else {
        std::fprintf(stderr, "FAIL(overload): unexpected outcome: %s\n",
                     answer.status.ToString().c_str());
        gates_ok = false;
      }
    }
    overload_server.Stop();
    overload_stats = overload_server.Stats();
  }
  std::sort(overload_latency_us.begin(), overload_latency_us.end());
  const double overload_p50 = PercentileUs(&overload_latency_us, 50.0);
  const double overload_p99 = PercentileUs(&overload_latency_us, 99.0);
  // Gate: the tail of what the tier chose to serve stays within the
  // deadline budget. (Shedding protects the served requests; a p99 past
  // the budget means it served work nobody could use.)
  if (overload_completed > 0 && overload_p99 > deadline_budget_us) {
    std::fprintf(stderr,
                 "FAIL: overload p99 of completed requests %.0fus exceeds "
                 "the deadline budget %.0fus\n",
                 overload_p99, deadline_budget_us);
    gates_ok = false;
  }
  // Gate: exact accounting — client-side tallies reconcile with the
  // server's own counters and nothing is unaccounted for.
  if (overload_submissions != overload_stats.accepted +
                                  overload_stats.rejected +
                                  overload_stats.deadline_rejected ||
      overload_admitted != overload_stats.accepted ||
      overload_rejected_full != overload_stats.rejected ||
      overload_rejected_deadline != overload_stats.deadline_rejected) {
    std::fprintf(stderr,
                 "FAIL: overload admission accounting mismatch "
                 "(client %zu/%zu/%zu vs stats %zu/%zu/%zu)\n",
                 overload_admitted, overload_rejected_full,
                 overload_rejected_deadline, overload_stats.accepted,
                 overload_stats.rejected, overload_stats.deadline_rejected);
    gates_ok = false;
  }
  if (overload_stats.accepted != overload_stats.completed +
                                     overload_stats.cancelled +
                                     overload_stats.deadline_shed ||
      overload_completed != overload_stats.completed ||
      overload_shed != overload_stats.deadline_shed) {
    std::fprintf(stderr,
                 "FAIL: overload resolution accounting mismatch "
                 "(client %zu/%zu vs stats %zu/%zu, cancelled %zu)\n",
                 overload_completed, overload_shed,
                 overload_stats.completed, overload_stats.deadline_shed,
                 overload_stats.cancelled);
    gates_ok = false;
  }

  const ServerStats stats = server.Stats();
  // Mean executed micro-batch size: how well the admission loop coalesces.
  double mean_batch = 0.0;
  if (stats.batches > 0) {
    size_t total = 0;
    for (size_t s = 0; s < stats.batch_size_histogram.size(); ++s) {
      total += s * stats.batch_size_histogram[s];
    }
    mean_batch = static_cast<double>(total) /
                 static_cast<double>(stats.batches);
  }

  PrintRow({"phase", "qps", "p50", "p90", "p99"});
  PrintRow({"serial", StrFormat("%.0f", serial_qps),
            StrFormat("%.1fus", serial_us_per_query), "-", "-"});
  PrintRow({"saturated", StrFormat("%.0f", server_qps),
            StrFormat("%.2fx", speedup), "-", "-"});
  PrintRow({"poisson", StrFormat("%.0f", lambda_qps),
            StrFormat("%.1fus", p50), StrFormat("%.1fus", p90),
            StrFormat("%.1fus", p99)});
  PrintRow({"overload", StrFormat("%.0f", overload_lambda_qps),
            StrFormat("%.1fus", overload_p50), "-",
            StrFormat("%.1fus", overload_p99)});
  std::printf("mean micro-batch %.1f, queue high-water %zu, "
              "poisson rejected %zu\n",
              mean_batch, stats.queue_high_water, poisson_rejected);
  std::printf("overload (3x, budget %.0fus): %zu submitted = "
              "%zu completed + %zu shed + %zu early-rejected + %zu full; "
              "%zu degraded answers, floor sweeps %zu\n",
              deadline_budget_us, overload_submissions, overload_completed,
              overload_shed, overload_rejected_deadline,
              overload_rejected_full, overload_degraded,
              overload_stats.current_inference_iterations);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"server_tier\",\n");
  std::fprintf(f, "  \"fixture\": \"%s\",\n",
               small ? "weather_s1_small" : "weather_s1_fig11");
  std::fprintf(f, "  \"hardware_threads\": %u,\n", hardware);
  std::fprintf(f, "  \"workers\": %zu,\n", workers);
  std::fprintf(f, "  \"serial_qps\": %.1f,\n", serial_qps);
  std::fprintf(f, "  \"serial_us_per_query\": %.3f,\n", serial_us_per_query);
  std::fprintf(f, "  \"saturated_qps\": %.1f,\n", server_qps);
  std::fprintf(f, "  \"speedup_vs_serial\": %.3f,\n", speedup);
  std::fprintf(f, "  \"speedup_gated\": %s,\n",
               hardware >= 4 && workers >= 4 ? "true" : "false");
  std::fprintf(f, "  \"poisson_lambda_qps\": %.1f,\n", lambda_qps);
  std::fprintf(f, "  \"poisson_p50_us\": %.1f,\n", p50);
  std::fprintf(f, "  \"poisson_p90_us\": %.1f,\n", p90);
  std::fprintf(f, "  \"poisson_p99_us\": %.1f,\n", p99);
  std::fprintf(f, "  \"poisson_p99_budget_us\": %.1f,\n", p99_budget_us);
  std::fprintf(f, "  \"mean_micro_batch\": %.2f,\n", mean_batch);
  std::fprintf(f, "  \"queue_high_water\": %zu,\n", stats.queue_high_water);
  std::fprintf(f, "  \"poisson_rejected\": %zu,\n", poisson_rejected);
  std::fprintf(f, "  \"overload_lambda_qps\": %.1f,\n", overload_lambda_qps);
  std::fprintf(f, "  \"overload_deadline_budget_us\": %.1f,\n",
               deadline_budget_us);
  std::fprintf(f, "  \"overload_submissions\": %zu,\n", overload_submissions);
  std::fprintf(f, "  \"overload_completed\": %zu,\n", overload_completed);
  std::fprintf(f, "  \"overload_shed\": %zu,\n", overload_shed);
  std::fprintf(f, "  \"overload_rejected_deadline\": %zu,\n",
               overload_rejected_deadline);
  std::fprintf(f, "  \"overload_rejected_full\": %zu,\n",
               overload_rejected_full);
  std::fprintf(f, "  \"overload_degraded\": %zu,\n", overload_degraded);
  std::fprintf(f, "  \"overload_p50_us\": %.1f,\n", overload_p50);
  std::fprintf(f, "  \"overload_p99_us\": %.1f\n", overload_p99);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return gates_ok ? 0 : 1;
}
