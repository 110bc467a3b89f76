// Serialization of trained Models: one versioned little-endian binary
// container (SaveModelBinary/LoadModelBinary), built for fast, checksummed
// loads of large models. Layout:
//
//   [64-byte header]
//     bytes  0..7   magic "GENCLUSB"
//     bytes  8..11  u32 format version (currently 1)
//     bytes 12..15  u32 flags (must be 0)
//     bytes 16..23  u64 payload size (file size minus the header)
//     bytes 24..31  u64 FNV-1a 64 checksum of the payload bytes
//     bytes 32..39  u64 num_nodes
//     bytes 40..47  u64 num_clusters
//     bytes 48..55  u64 Θ block count (SaveModelBinary writes 1)
//     bytes 56..63  reserved, zero
//   [payload]
//     f64 objective
//     link types:   u64 count; per type u32 name length + bytes;
//                   then count f64 gamma values
//     attributes:   u64 count; per attribute u8 kind (0 categorical,
//                   1 numerical), u32 name length + bytes, u64 vocab
//                   size (0 for numerical), then K x vocab f64 beta
//                   rows (categorical) or K {mean, variance} f64 pairs
//                   (numerical)
//     Θ block table: 64-byte-aligned file offset; per block u64
//                   node_begin, u64 node_count, u64 theta file offset,
//                   u64 theta byte count
//     Θ blocks:     per block, at its recorded 64-byte-aligned offset,
//                   node_count x K raw f64 rows
//
// Every section is written little-endian; Θ blocks are 64-byte aligned in
// the file so a loaded (or memory-mapped) image can hand Θ straight to
// the SpMM kernels. SaveModelBinary writes Θ as one block; the loader
// accepts any block count whose entries tile the node range in order and
// assembles them into one dense Θ. A round trip is bitwise exact: a model
// trained once answers queries with the same doubles after it is saved
// and reloaded.
#pragma once

#include <string>

#include "common/status.h"
#include "core/model.h"

namespace genclus {

/// Writes `model` to `path` in the binary container described above.
/// Fails with InvalidArgument if the model does not pass
/// Model::Validate(), IoError on filesystem problems.
Status SaveModelBinary(const Model& model, const std::string& path);

/// Reads a model written by SaveModelBinary. The loaded Θ, gamma, beta
/// and Gaussian parameters are bitwise identical to the saved ones.
/// Truncated files, checksum mismatches, bad magic/version/flags and
/// malformed sections all fail with a clean IoError; the loaded model is
/// re-validated before being returned. The checksum does not cover the
/// header, so its counts are checked against the file before anything is
/// sized from them.
Result<Model> LoadModelBinary(const std::string& path);

}  // namespace genclus
