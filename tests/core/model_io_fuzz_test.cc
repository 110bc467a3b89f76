// Hostile model files: a deterministic mutation campaign over a small
// saved model. LoadModelBinary is the only model-file boundary; every
// mutant is written to disk and loaded, the loader must return (no
// exception, no abort, no sanitizer report), and whatever it accepts must
// pass Model::Validate(). The header's payload size and checksum turn
// away almost any payload edit, so mutations are also tried "re-stamped":
// with those two header fields recomputed for the mutant, which carries
// the edit past the integrity checks into the section parsers. The
// mutations are
//   * truncation at every byte, as written and re-stamped;
//   * every single-bit flip of every byte, as written and re-stamped;
//   * seeded random byte overwrites, re-stamped;
//   * hostile u64s (0, 1, 2, 2^32, 2^40, 2^62, 2^64 - 1) written at every
//     byte offset, re-stamped.
#include "core/model_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#include "common/random.h"

namespace genclus {
namespace {

// The header fields a re-stamp rewrites (layout in core/model_io.h).
constexpr size_t kHeaderSize = 64;
constexpr size_t kPayloadSizeAt = 16;
constexpr size_t kChecksumAt = 24;

// K = 2, so that one bit flip or one written u64 can zero it; both
// attribute kinds, the numerical one first so that a zeroed K reaches the
// Gaussian section before anything else sizes from it; three nodes, saved
// as SaveModelBinary saves every model: a one-entry Θ block table.
Model MakeModel() {
  Model model;
  model.theta = Matrix(3, 2);
  for (size_t v = 0; v < 3; ++v) {
    model.theta(v, 0) = 0.2 + 0.3 * static_cast<double>(v);
    model.theta(v, 1) = 1.0 - model.theta(v, 0);
  }
  model.gamma = {0.5, 2.0};
  model.link_types = {"ab", "ba"};
  model.objective = -12.5;
  model.attributes.push_back({"temp", AttributeKind::kNumerical, 0});
  model.components.push_back(AttributeComponents::Numerical(
      {GaussianDistribution(1.5, 0.25), GaussianDistribution(-3.0, 4.0)}));
  model.attributes.push_back({"text", AttributeKind::kCategorical, 3});
  AttributeComponents text = AttributeComponents::CategoricalUniform(2, 3);
  (*text.mutable_beta())(0, 0) = 0.5;
  (*text.mutable_beta())(0, 1) = 1.0 / 6.0;
  model.components.push_back(std::move(text));
  return model;
}

// FNV-1a 64 of bytes[begin..]: the container's payload checksum.
uint64_t Fnv1a64(const std::string& bytes, size_t begin) {
  uint64_t hash = 14695981039346656037ull;
  for (size_t i = begin; i < bytes.size(); ++i) {
    hash ^= static_cast<uint8_t>(bytes[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

// `bytes` with the header's payload size and checksum recomputed; a file
// shorter than the header is returned as is.
std::string Restamp(std::string bytes) {
  if (bytes.size() < kHeaderSize) return bytes;
  const uint64_t payload_size = bytes.size() - kHeaderSize;
  const uint64_t checksum = Fnv1a64(bytes, kHeaderSize);
  std::memcpy(bytes.data() + kPayloadSizeAt, &payload_size,
              sizeof(payload_size));
  std::memcpy(bytes.data() + kChecksumAt, &checksum, sizeof(checksum));
  return bytes;
}

class ModelIoFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Model model = MakeModel();
    ASSERT_TRUE(model.Validate().ok());
    ASSERT_TRUE(SaveModelBinary(model, path_).ok());
    std::ifstream in(path_, std::ios::binary);
    seed_.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    ASSERT_GT(seed_.size(), kHeaderSize);
    ASSERT_EQ(Restamp(seed_), seed_);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Loads `contents` and checks the contract; counts accepted mutants.
  // `what` and `at` name the mutant in a failure message.
  void Check(const std::string& contents, const char* what, size_t at) {
    // A fresh file each time: rewriting a truncated one makes some file
    // systems flush it on close, which would dominate the run time.
    std::remove(path_.c_str());
    {
      std::ofstream out(path_, std::ios::binary);
      out << contents;
    }
    try {
      Result<Model> r = LoadModelBinary(path_);
      if (r.ok()) {
        ++accepted_;
        const Status valid = r->Validate();
        EXPECT_TRUE(valid.ok()) << valid.ToString() << " (" << what << " at "
                                << at << ")";
      } else {
        EXPECT_FALSE(r.status().message().empty())
            << what << " at " << at;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "LoadModelBinary threw '" << e.what() << "' ("
                    << what << " at " << at << ")";
    }
  }

  std::string path_ = ::testing::TempDir() + "/genclus_model_io_fuzz.bin";
  std::string seed_;
  size_t accepted_ = 0;
};

TEST_F(ModelIoFuzzTest, SeedFileLoads) {
  Check(seed_, "seed", 0);
  EXPECT_EQ(accepted_, 1u);
}

TEST_F(ModelIoFuzzTest, TruncationAtEveryByte) {
  for (size_t len = 0; len < seed_.size(); ++len) {
    Check(seed_.substr(0, len), "truncation", len);
    Check(Restamp(seed_.substr(0, len)), "re-stamped truncation", len);
  }
  // Θ ends the file, so every cut loses part of it.
  EXPECT_EQ(accepted_, 0u);
}

TEST_F(ModelIoFuzzTest, EveryBitFlip) {
  size_t restamped_accepted = 0;
  for (size_t i = 0; i < seed_.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = seed_;
      mutant[i] = static_cast<char>(mutant[i] ^ (1 << bit));
      Check(mutant, "bit flip", i * 8 + bit);
      const size_t before = accepted_;
      Check(Restamp(std::move(mutant)), "re-stamped bit flip", i * 8 + bit);
      restamped_accepted += accepted_ - before;
    }
  }
  // Re-stamping reaches the parsers: flips in Θ, γ or the objective that
  // keep every value legal load.
  EXPECT_GT(restamped_accepted, 0u);
}

TEST_F(ModelIoFuzzTest, RandomByteOverwrites) {
  Rng rng(20261018);
  for (size_t round = 0; round < 1500; ++round) {
    std::string mutant = seed_;
    const size_t edits = 1 + rng.UniformIndex(4);
    for (size_t e = 0; e < edits; ++e) {
      mutant[rng.UniformIndex(mutant.size())] =
          static_cast<char>(rng.UniformIndex(256));
    }
    Check(Restamp(std::move(mutant)), "random overwrite round", round);
  }
}

TEST_F(ModelIoFuzzTest, HostileU64AtEveryOffset) {
  const uint64_t kHostile[] = {0,
                               1,
                               2,
                               uint64_t{1} << 32,
                               uint64_t{1} << 40,
                               uint64_t{1} << 62,
                               ~uint64_t{0}};
  for (const uint64_t value : kHostile) {
    for (size_t at = 0; at + sizeof(value) <= seed_.size(); ++at) {
      std::string mutant = seed_;
      std::memcpy(mutant.data() + at, &value, sizeof(value));
      Check(Restamp(std::move(mutant)), "hostile u64", at);
    }
  }
}

}  // namespace
}  // namespace genclus
