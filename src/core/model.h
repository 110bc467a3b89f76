// The persistable trained artifact of a GenClus fit: memberships Theta,
// learned link-type strengths gamma, the per-attribute mixture components
// beta, and enough schema/attribute metadata to validate serving queries
// against the model without the original Dataset. A Model is produced by
// Engine::Fit, serialized with SaveModelBinary/LoadModelBinary
// (core/model_io.h), and served through an Engine (core/engine.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/components.h"
#include "hin/attributes.h"
#include "hin/network.h"
#include "linalg/matrix.h"

namespace genclus {

/// Metadata of one attribute the model was trained on, aligned with
/// Model::components. Lets the serving layer reject queries referencing
/// attributes or terms the model has never seen.
struct ModelAttributeInfo {
  std::string name;
  AttributeKind kind = AttributeKind::kCategorical;
  /// Vocabulary size (categorical); 0 for numerical attributes.
  size_t vocab_size = 0;
};

/// What ApplyUpdates (core/update.h) keeps in a model between calls so
/// that its component refresh can resume: the M-step sums of the last
/// refresh and the inputs they read. Opaque outside core/update.cc, which
/// defines it. A move carries it; a copy starts empty (and copy
/// assignment empties it), so two models never share it and a served
/// copy never holds it.
class RefreshCache {
 public:
  RefreshCache() noexcept;
  ~RefreshCache();
  RefreshCache(const RefreshCache&) noexcept;
  RefreshCache& operator=(const RefreshCache&) noexcept;
  RefreshCache(RefreshCache&& other) noexcept;
  RefreshCache& operator=(RefreshCache&& other) noexcept;

 private:
  friend class ComponentRefresh;
  struct State;
  std::unique_ptr<State> state_;
};

/// Self-contained trained clustering model. Plain data apart from
/// `refresh_cache`: copy, move and serialize freely. A move keeps the
/// cache; a copy and SaveModelBinary drop it, so a copied or loaded
/// model, like a fitted or refitted one, starts without (its first
/// ApplyUpdates runs the full component pass). Invariants are checked by
/// Validate(), compatibility with a serving network by ValidateAgainst().
struct Model {
  /// Soft clustering: row v is theta_v on the K-simplex.
  Matrix theta;
  /// Learned strength per link type (indexed by LinkTypeId).
  std::vector<double> gamma;
  /// Link-type names in LinkTypeId order — the schema fingerprint used to
  /// check that a loaded model matches the serving network.
  std::vector<std::string> link_types;
  /// Mixture components per trained attribute (AttributeId order of the
  /// training call).
  std::vector<AttributeComponents> components;
  /// Attribute metadata aligned with `components`.
  std::vector<ModelAttributeInfo> attributes;
  /// g1 objective at the final training iterate.
  double objective = 0.0;
  /// ApplyUpdates' kept component sums; never saved, validated or
  /// fingerprinted.
  RefreshCache refresh_cache;

  size_t num_clusters() const { return theta.cols(); }
  size_t num_nodes() const { return theta.rows(); }

  /// Hard labels: argmax_k theta(v, k).
  std::vector<uint32_t> HardLabels() const;

  /// Internal consistency: non-degenerate clustering, every Θ row and
  /// every categorical β row a distribution (entries finite and >= 0,
  /// summing to 1 within 1e-9), gamma finite, >= 0 and aligned with
  /// link_types, components matching their attribute metadata and K.
  Status Validate() const;

  /// Validate() plus compatibility with `network`: node count and
  /// link-type names must match the schema the model was trained on.
  Status ValidateAgainst(const Network& network) const;

  /// ValidateAgainst relaxed for the serving/swap path: the model may
  /// cover MORE nodes than the network (a refreshed model trained on a
  /// grown dataset swapped into a server still planning against the old
  /// network — fold-in queries only ever read rows the network can
  /// address), never fewer.
  Status ValidateForServing(const Network& network) const;

  /// Content fingerprint: the FNV-1a64 checksum of the binary container's
  /// payload (core/model_io.h), computed without touching the filesystem.
  /// Two models fingerprint equal iff SaveModelBinary would write
  /// byte-equal payloads — the identity Server stamps on swapped models
  /// and the invariance tests compare. Defined in model_io.cc.
  uint64_t Fingerprint() const;
};

}  // namespace genclus
