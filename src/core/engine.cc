#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/em.h"
#include "core/init.h"
#include "core/objective.h"
#include "core/strength.h"

namespace genclus {

Status Engine::ResolveAttributes(const Dataset& dataset,
                                 const std::vector<std::string>& names,
                                 std::vector<const Attribute*>* attrs,
                                 std::vector<ModelAttributeInfo>* info) {
  attrs->reserve(names.size());
  info->reserve(names.size());
  for (const std::string& name : names) {
    AttributeId id = dataset.FindAttribute(name);
    if (id == kInvalidAttribute) {
      return Status::NotFound(
          StrFormat("attribute '%s' not in dataset", name.c_str()));
    }
    const Attribute& attribute = dataset.attributes[id];
    attrs->push_back(&attribute);
    ModelAttributeInfo entry;
    entry.name = attribute.name();
    entry.kind = attribute.kind();
    entry.vocab_size = attribute.kind() == AttributeKind::kCategorical
                           ? attribute.vocab_size()
                           : 0;
    info->push_back(std::move(entry));
  }
  return Status::OK();
}

Result<FitResult> Engine::RunAlgorithm1(
    const Dataset& dataset, const std::vector<const Attribute*>& attrs,
    const GenClusConfig& config, ProgressObserver* observer,
    const CancellationToken* cancellation, Model model,
    const WallTimer& timer) {
  const Network& network = dataset.network;
  const Schema& schema = network.schema();
  const size_t num_relations = schema.num_link_types();
  std::unique_ptr<ThreadPool> pool;
  if (config.num_threads != 1) {
    pool = std::make_unique<ThreadPool>(config.num_threads);
  }
  Rng rng(config.seed);
  EmOptimizer optimizer(&network, attrs, &config, pool.get());
  // One workspace for every EM phase of the outer loop: the problem shape
  // never changes, so all EM scratch is allocated exactly once per fit.
  EmWorkspace em_workspace;

  // gamma^0: all link types equally important unless overridden (§4.3).
  std::vector<double> gamma = config.initial_gamma.empty()
                                  ? std::vector<double>(num_relations, 1.0)
                                  : config.initial_gamma;
  FitResult out;
  {
    OuterIterationRecord initial;
    initial.iteration = 0;
    initial.gamma = gamma;
    out.report.trace.push_back(std::move(initial));
  }

  // Theta'_0, beta'_0: the caller's warm start (Refit) or best-of-seeds
  // (§4.3 initialization) for Fit's default-constructed 0 x 0 Theta.
  if (model.theta.cols() == 0) {
    BestOfSeedsInit(optimizer, network, attrs, config, gamma, &rng,
                    &model.theta, &model.components);
  }

  for (size_t outer = 1; outer <= config.outer_iterations; ++outer) {
    if (cancellation && cancellation->IsCancellationRequested()) {
      return Status::Cancelled(StrFormat(
          "training cancelled before outer iteration %zu", outer));
    }
    OuterIterationRecord record;
    record.iteration = outer;

    // Step 1: optimize Theta, beta for fixed gamma.
    WallTimer em_timer;
    const EmStats em_stats = optimizer.Run(gamma, &model.theta,
                                           &model.components, &em_workspace);
    record.em_seconds = em_timer.Seconds();
    record.em_iterations = em_stats.iterations;
    record.em_objective = G1Objective(network, attrs, model.components,
                                      model.theta, gamma);

    // Step 2: optimize gamma for fixed Theta.
    double gamma_delta = 0.0;
    WallTimer strength_timer;
    if (config.learn_strengths) {
      StrengthLearner learner(&network, &model.theta, &config, pool.get());
      StrengthStats strength_stats;
      std::vector<double> new_gamma = learner.Learn(gamma, &strength_stats);
      for (size_t r = 0; r < num_relations; ++r) {
        gamma_delta = std::max(gamma_delta,
                               std::fabs(new_gamma[r] - gamma[r]));
      }
      gamma = std::move(new_gamma);
      record.strength_objective = strength_stats.objective;
    }
    record.strength_seconds = strength_timer.Seconds();
    record.gamma = gamma;

    GENCLUS_LOGS(Info) << "GenClus outer " << outer
                       << ": g1=" << record.em_objective
                       << " em_iters=" << em_stats.iterations
                       << " gamma_delta=" << gamma_delta;

    out.report.em_seconds += record.em_seconds;
    out.report.strength_seconds += record.strength_seconds;
    out.report.trace.push_back(std::move(record));
    if (observer) {
      observer->OnOuterIteration(out.report.trace.back(), model.theta);
    }

    if (config.learn_strengths && outer > 1 &&
        gamma_delta < config.outer_tolerance) {
      out.report.converged = true;
      break;
    }
  }

  model.objective = G1Objective(network, attrs, model.components,
                                model.theta, gamma);
  model.gamma = std::move(gamma);
  model.link_types.reserve(num_relations);
  for (LinkTypeId r = 0; r < num_relations; ++r) {
    model.link_types.push_back(schema.link_type(r).name);
  }
  out.report.objective = model.objective;
  out.report.outer_iterations = out.report.trace.size() - 1;
  out.report.total_seconds = timer.Seconds();
  out.model = std::move(model);
  return out;
}

Result<FitResult> Engine::Fit(const Dataset& dataset,
                              const FitOptions& options) {
  GENCLUS_RETURN_IF_ERROR(dataset.Validate());
  GENCLUS_RETURN_IF_ERROR(
      options.config.Validate(dataset.network.schema().num_link_types()));

  std::vector<const Attribute*> attrs;
  Model model;
  GENCLUS_RETURN_IF_ERROR(ResolveAttributes(dataset, options.attributes,
                                            &attrs, &model.attributes));
  WallTimer timer;
  return RunAlgorithm1(dataset, attrs, options.config, options.observer,
                       options.cancellation, std::move(model), timer);
}

Engine::Engine(const Network* network, std::unique_ptr<Model> model,
               size_t num_threads)
    : model_(std::move(model)),
      core_(network, model_.get()),
      pool_(std::make_unique<ThreadPool>(num_threads)) {}

Result<Engine> Engine::Create(const Network* network, Model model,
                              EngineOptions options) {
  if (network == nullptr) {
    return Status::InvalidArgument("network must not be null");
  }
  GENCLUS_RETURN_IF_ERROR(model.ValidateAgainst(*network));
  return Engine(network, std::make_unique<Model>(std::move(model)),
                options.num_threads);
}

InferPlan Engine::Plan(std::span<const NewObjectQuery> queries) const {
  return core_.Plan(queries);
}

InferenceResult Engine::Execute(const InferPlan& plan) const {
  return core_.Execute(plan, pool_.get());
}

Result<std::vector<double>> Engine::Infer(const NewObjectQuery& query) const {
  InferenceResult result = Execute(Plan(std::span(&query, 1)));
  if (!result.statuses[0].ok()) return result.statuses[0];
  return result.memberships.RowVector(0);
}

std::vector<Result<std::vector<double>>> Engine::InferBatch(
    std::span<const NewObjectQuery> queries) const {
  InferenceResult result = Execute(Plan(queries));
  std::vector<Result<std::vector<double>>> out;
  out.reserve(result.size());
  for (size_t i = 0; i < result.size(); ++i) {
    if (result.statuses[i].ok()) {
      out.push_back(result.memberships.RowVector(i));
    } else {
      out.push_back(std::move(result.statuses[i]));
    }
  }
  return out;
}

}  // namespace genclus
