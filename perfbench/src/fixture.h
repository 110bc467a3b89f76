// Workload inputs, made from the seed by the library's own generators
// (src/datagen): the network the model is fitted on, the objects held
// back from it, and the two streams built from those held-back objects —
// the serving query pool and the growth deltas. Sizes, thread counts and
// the fit schedule are fixed per workload; nothing is read from the host.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "core/inference.h"
#include "hin/dataset.h"
#include "hin/delta.h"

namespace perfbench {

/// Input scale: the measured one, or a seconds-long one for self-tests.
enum class Scale { kFull, kTiny };

struct Fixture {
  /// The network the model is fitted on: the generated network minus the
  /// held-back objects (the last `held_back` node ids).
  genclus::Dataset base;
  /// Attribute names passed to Engine::Fit (FitOptions::attributes).
  std::vector<std::string> attributes;
  genclus::GenClusConfig fit_config;
  /// The held-back objects as consecutive growth deltas, in id order.
  std::vector<genclus::NetworkDelta> deltas;
  /// Fold-in queries of new objects against `base` (served in a cycle).
  std::vector<genclus::NewObjectQuery> queries;
  /// Link-type names whose learned strengths must come out strictly
  /// decreasing (the planted reliability order); empty = no check.
  std::vector<std::string> strength_order;
  /// Quality floor: NMI of the fitted model on `base`, and of the warm
  /// refit on the grown network.
  double nmi_floor = 0.0;
};

/// Builds the inputs of `workload` from `seed`; the same seed gives the
/// same inputs. The network is the workload's own; the seed draws the
/// query pool.
genclus::Result<Fixture> MakeFixture(const std::string& workload,
                                     uint64_t seed, Scale scale);

/// FNV-1a 64 over the saved dataset file's bytes, the query pool and the
/// delta stream: changes whenever the generators or the dataset writer
/// change what a workload receives.
genclus::Result<uint64_t> InputFingerprint(const Fixture& fixture,
                                           const std::string& dataset_path);

/// Bytes the fit touches per sweep, computed from the shapes: Θ, every
/// relation's CSR and the attribute observations.
struct WorkingSet {
  double theta_bytes = 0.0;
  double csr_bytes = 0.0;
  double observation_bytes = 0.0;
  double total() const { return theta_bytes + csr_bytes + observation_bytes; }
};
WorkingSet ComputeWorkingSet(const genclus::Dataset& dataset,
                             size_t num_clusters);

}  // namespace perfbench
