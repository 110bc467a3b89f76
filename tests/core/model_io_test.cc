// Model persistence (SaveModelBinary/LoadModelBinary): bit-exact round
// trips of trained models (including numerical-attribute Gaussians),
// loads of Θ written as several blocks, atomic saves, and clean Status
// errors — never crashes — on truncated or corrupt files, bad magic,
// checksum mismatches, unsupported versions and lying header counts.
// model_io_fuzz_test runs the exhaustive mutation campaign.
#include "core/model_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "core/engine.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::MakeTwoCommunityNetwork;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// RAII deleter so failed assertions do not leak files between runs.
class ScopedFile {
 public:
  explicit ScopedFile(std::string path) : path_(std::move(path)) {}
  ~ScopedFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Model TrainPlantedModel() {
  auto fixture = MakeTwoCommunityNetwork(8, 1.0, 301);
  FitOptions options;
  options.attributes = {"text"};
  options.config = testing::PlantedFixtureConfig(302);
  auto fit = Engine::Fit(fixture.dataset, options);
  EXPECT_TRUE(fit.ok()) << fit.status().ToString();
  return std::move(fit).value().model;
}

void ExpectBitExact(const Model& a, const Model& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_clusters(), b.num_clusters());
  EXPECT_EQ(a.theta.data(), b.theta.data());  // exact double equality
  EXPECT_EQ(a.gamma, b.gamma);
  EXPECT_EQ(a.link_types, b.link_types);
  EXPECT_EQ(a.objective, b.objective);
  ASSERT_EQ(a.components.size(), b.components.size());
  ASSERT_EQ(a.attributes.size(), b.attributes.size());
  for (size_t i = 0; i < a.components.size(); ++i) {
    EXPECT_EQ(a.attributes[i].name, b.attributes[i].name);
    EXPECT_EQ(a.attributes[i].kind, b.attributes[i].kind);
    EXPECT_EQ(a.attributes[i].vocab_size, b.attributes[i].vocab_size);
    ASSERT_EQ(a.components[i].kind(), b.components[i].kind());
    if (a.components[i].kind() == AttributeKind::kCategorical) {
      EXPECT_EQ(a.components[i].beta().data(), b.components[i].beta().data());
    } else {
      for (size_t k = 0; k < a.num_clusters(); ++k) {
        const auto& ga = a.components[i].gaussian(static_cast<ClusterId>(k));
        const auto& gb = b.components[i].gaussian(static_cast<ClusterId>(k));
        EXPECT_EQ(ga.mean(), gb.mean());
        EXPECT_EQ(ga.variance(), gb.variance());
      }
    }
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ModelIoBinaryTest, RoundTripIsBitExactOnPlantedFixture) {
  Model model = TrainPlantedModel();
  ScopedFile file(TempPath("genclus_model_roundtrip.bin"));
  Status saved = SaveModelBinary(model, file.path());
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  auto loaded = LoadModelBinary(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitExact(model, *loaded);
}

// A hand-built K = 2 model with one numerical attribute (the planted
// fixture is categorical-only).
Model MakeGaussianModel() {
  Model model;
  model.theta = Matrix(5, 2);
  for (size_t v = 0; v < 5; ++v) {
    model.theta(v, 0) = 1.0 / (3.0 + static_cast<double>(v));
    model.theta(v, 1) = 1.0 - model.theta(v, 0);
  }
  model.gamma = {0.1, 14.46};
  model.link_types = {"tt", "tp"};
  model.objective = -123.456789012345678;
  model.attributes.push_back({"temperature", AttributeKind::kNumerical, 0});
  model.components.push_back(AttributeComponents::Numerical(
      {GaussianDistribution(-7.25, 0.3333333333333333),
       GaussianDistribution(31.0, 2.718281828459045)}));
  EXPECT_TRUE(model.Validate().ok());
  return model;
}

TEST(ModelIoBinaryTest, RoundTripPreservesGaussians) {
  const Model model = MakeGaussianModel();
  ScopedFile file(TempPath("genclus_model_gaussian.bin"));
  ASSERT_TRUE(SaveModelBinary(model, file.path()).ok());
  auto loaded = LoadModelBinary(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitExact(model, *loaded);
}

TEST(ModelIoBinaryTest, SaveRejectsInvalidModel) {
  Model model;  // K = 0: fails Validate
  ScopedFile file(TempPath("genclus_model_invalid.bin"));
  EXPECT_FALSE(SaveModelBinary(model, file.path()).ok());
}

TEST(ModelIoBinaryTest, LoadFailsCleanlyOnMissingFile) {
  auto loaded = LoadModelBinary(TempPath("genclus_model_missing.bin"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(ModelIoBinaryTest, LoadFailsCleanlyOnTruncation) {
  Model model = TrainPlantedModel();
  ScopedFile file(TempPath("genclus_model_truncated.bin"));
  ASSERT_TRUE(SaveModelBinary(model, file.path()).ok());
  const std::string full = ReadFileBytes(file.path());
  // Every truncation point must fail cleanly — inside the header, inside
  // the sections, and mid-Θ.
  for (size_t keep : {size_t{0}, size_t{8}, size_t{63}, size_t{64},
                      size_t{100}, full.size() / 2, full.size() - 1}) {
    WriteFileBytes(file.path(), full.substr(0, keep));
    auto loaded = LoadModelBinary(file.path());
    ASSERT_FALSE(loaded.ok()) << "accepted truncation at " << keep;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << keep;
  }
}

TEST(ModelIoBinaryTest, LoadFailsCleanlyOnCorruptPayload) {
  Model model = TrainPlantedModel();
  ScopedFile file(TempPath("genclus_model_corrupt.bin"));
  ASSERT_TRUE(SaveModelBinary(model, file.path()).ok());
  std::string bytes = ReadFileBytes(file.path());
  ASSERT_GT(bytes.size(), 200u);
  // Flip one payload byte: the checksum must catch it before any parsing.
  bytes[150] = static_cast<char>(bytes[150] ^ 0x5a);
  WriteFileBytes(file.path(), bytes);
  auto loaded = LoadModelBinary(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

TEST(ModelIoBinaryTest, LoadRejectsBadMagicAndVersionAndTextFile) {
  Model model = TrainPlantedModel();
  ScopedFile file(TempPath("genclus_model_header.bin"));
  ASSERT_TRUE(SaveModelBinary(model, file.path()).ok());
  const std::string good = ReadFileBytes(file.path());

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  WriteFileBytes(file.path(), bad_magic);
  auto loaded = LoadModelBinary(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);

  // The version lives in the (un-checksummed) header, so a bumped version
  // is reported as such, not as corruption.
  std::string bad_version = good;
  bad_version[8] = 99;
  WriteFileBytes(file.path(), bad_version);
  loaded = LoadModelBinary(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);

  // A text file longer than the header is a clean bad-magic error.
  WriteFileBytes(file.path(),
                 "# genclus trained model\ngenclus_model 1\nclusters 2\n"
                 "nodes 1\nobjective 0\ntheta 0 0.5 0.5\n");
  loaded = LoadModelBinary(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
}

// The checksum covers the payload only, so these header edits leave it
// valid and the header's counts alone must stop the load.
TEST(ModelIoBinaryTest, LoadRejectsZeroClusterCount) {
  ScopedFile file(TempPath("genclus_model_zero_k.bin"));
  ASSERT_TRUE(SaveModelBinary(MakeGaussianModel(), file.path()).ok());
  std::string bytes = ReadFileBytes(file.path());
  ASSERT_EQ(bytes[40], 2);
  bytes[40] = static_cast<char>(bytes[40] ^ 0x02);  // K: 2 -> 0
  WriteFileBytes(file.path(), bytes);
  auto loaded = LoadModelBinary(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(ModelIoBinaryTest, LoadRejectsClusterCountPastTheFile) {
  ScopedFile file(TempPath("genclus_model_huge_k.bin"));
  ASSERT_TRUE(SaveModelBinary(MakeGaussianModel(), file.path()).ok());
  std::string bytes = ReadFileBytes(file.path());
  const uint64_t no_nodes = 0;
  const uint64_t huge_k = uint64_t{1} << 62;
  std::memcpy(bytes.data() + 32, &no_nodes, sizeof(no_nodes));
  std::memcpy(bytes.data() + 40, &huge_k, sizeof(huge_k));
  WriteFileBytes(file.path(), bytes);
  auto loaded = LoadModelBinary(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(ModelIoBinaryTest, LoadRefusesADirectory) {
  // A directory opens for reading, but has no length to size a buffer
  // from: a clean IoError, never an exception.
  const std::string dir = TempPath("genclus_model_dir");
  std::filesystem::create_directories(dir);
  try {
    auto loaded = LoadModelBinary(dir);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "LoadModelBinary threw '" << e.what() << "'";
  }
  std::filesystem::remove(dir);
}

// K = 2, a categorical attribute; every stored double is distinct, so an
// edit can find its one occurrence in the saved file.
Model MakeSimplexModel() {
  Model model;
  model.theta = Matrix(3, 2);
  const double first[] = {0.2, 0.35, 0.9};
  for (size_t v = 0; v < 3; ++v) {
    model.theta(v, 0) = first[v];
    model.theta(v, 1) = 1.0 - first[v];
  }
  model.gamma = {1.5, 2.5};
  model.link_types = {"ab", "ba"};
  model.attributes.push_back({"text", AttributeKind::kCategorical, 3});
  AttributeComponents text = AttributeComponents::CategoricalUniform(2, 3);
  Matrix& beta = *text.mutable_beta();
  beta(0, 0) = 0.15;
  beta(0, 1) = 0.25;
  beta(0, 2) = 0.6;
  model.components.push_back(std::move(text));
  EXPECT_TRUE(model.Validate().ok());
  return model;
}

// One way to knock a Θ or β row off the simplex: the stored doubles
// `from` become `to`, in the model and in its saved file alike.
struct SimplexEdit {
  const char* name;
  std::vector<double> from;
  std::vector<double> to;
};

std::vector<SimplexEdit> SimplexEdits() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {
      {"theta row summing to 1.5", {0.35}, {0.85}},
      {"negative theta entry", {0.35, 1.0 - 0.35}, {-0.25, 1.25}},
      {"beta row holding a NaN", {0.25}, {nan}},
      {"beta row summing to 0.9", {0.15}, {0.05}},
  };
}

// Replaces every stored double equal to from[i] by to[i].
void ApplyToModel(const SimplexEdit& edit, Model* model) {
  auto replace = [&](double& x) {
    for (size_t i = 0; i < edit.from.size(); ++i) {
      if (x == edit.from[i]) x = edit.to[i];
    }
  };
  for (double& x : model->theta.data()) replace(x);
  for (double& x : model->components[0].mutable_beta()->data()) replace(x);
}

// The same edit on a saved file image; each `from` occurs exactly once.
void ApplyToFile(const SimplexEdit& edit, std::string* bytes) {
  for (size_t i = 0; i < edit.from.size(); ++i) {
    const std::string from(reinterpret_cast<const char*>(&edit.from[i]),
                           sizeof(double));
    const size_t at = bytes->find(from);
    ASSERT_NE(at, std::string::npos) << edit.name;
    ASSERT_EQ(bytes->find(from, at + 1), std::string::npos) << edit.name;
    bytes->replace(at, sizeof(double),
                   reinterpret_cast<const char*>(&edit.to[i]),
                   sizeof(double));
  }
}

// `bytes` with the header's payload checksum recomputed (FNV-1a 64 of
// everything after the 64-byte header, stored at byte 24).
std::string RestampChecksum(std::string bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (size_t i = 64; i < bytes.size(); ++i) {
    hash ^= static_cast<uint8_t>(bytes[i]);
    hash *= 1099511628211ull;
  }
  bytes.replace(24, sizeof(hash), reinterpret_cast<const char*>(&hash),
                sizeof(hash));
  return bytes;
}

uint64_t ReadU64(const std::string& bytes, size_t at) {
  uint64_t value = 0;
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  return value;
}

void WriteU64(std::string* bytes, size_t at, uint64_t value) {
  std::memcpy(bytes->data() + at, &value, sizeof(value));
}

// Files may carry Θ as several node-range blocks (the header's Θ block
// count, bytes 48..55, sizes the table). SaveModelBinary writes one block;
// a file that splits the same Θ into two must load to the same model.
TEST(ModelIoBinaryTest, LoadsThetaWrittenAsTwoBlocks) {
  const Model model = MakeGaussianModel();
  ScopedFile file(TempPath("genclus_model_two_blocks.bin"));
  ASSERT_TRUE(SaveModelBinary(model, file.path()).ok());
  std::string bytes = ReadFileBytes(file.path());
  ASSERT_EQ(ReadU64(bytes, 48), 1u);

  // Θ (5 x 2 doubles, 80 bytes) is the file's tail; the one-entry table
  // {node_begin, node_count, file offset, byte count} starts 64 bytes
  // before it, so two entries fit in front of Θ without moving it.
  const size_t theta_bytes = 5 * 2 * sizeof(double);
  const size_t theta_at = bytes.size() - theta_bytes;
  const size_t table_at = theta_at - 64;
  ASSERT_EQ(theta_at % 64, 0u);
  ASSERT_EQ(ReadU64(bytes, table_at), 0u);
  ASSERT_EQ(ReadU64(bytes, table_at + 8), 5u);
  ASSERT_EQ(ReadU64(bytes, table_at + 16), theta_at);
  ASSERT_EQ(ReadU64(bytes, table_at + 24), theta_bytes);

  // Rows 0..3 (64 bytes) at Θ's offset, row 4 (16 bytes) 64 bytes later:
  // both blocks stay 64-byte aligned.
  const uint64_t table[8] = {0, 4, theta_at,      64,
                             4, 1, theta_at + 64, 16};
  for (size_t i = 0; i < 8; ++i) WriteU64(&bytes, table_at + 8 * i, table[i]);
  WriteU64(&bytes, 48, 2);
  WriteFileBytes(file.path(), RestampChecksum(std::move(bytes)));

  auto loaded = LoadModelBinary(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitExact(model, *loaded);
  EXPECT_EQ(loaded->Fingerprint(), model.Fingerprint());
}

TEST(ModelValidateTest, RefusesRowsOffTheSimplex) {
  for (const SimplexEdit& edit : SimplexEdits()) {
    SCOPED_TRACE(edit.name);
    Model model = MakeSimplexModel();
    ApplyToModel(edit, &model);
    const Status valid = model.Validate();
    EXPECT_EQ(valid.code(), StatusCode::kInvalidArgument) << valid.ToString();
  }
}

TEST(ModelIoBinaryTest, LoadRefusesRowsOffTheSimplex) {
  ScopedFile file(TempPath("genclus_model_simplex.bin"));
  ASSERT_TRUE(SaveModelBinary(MakeSimplexModel(), file.path()).ok());
  const std::string good = ReadFileBytes(file.path());
  ASSERT_EQ(RestampChecksum(good), good);
  for (const SimplexEdit& edit : SimplexEdits()) {
    SCOPED_TRACE(edit.name);
    std::string bytes = good;
    ApplyToFile(edit, &bytes);
    WriteFileBytes(file.path(), RestampChecksum(std::move(bytes)));
    auto loaded = LoadModelBinary(file.path());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
}

TEST(ModelIoBinaryTest, FingerprintMatchesContainerChecksum) {
  // Model::Fingerprint is DEFINED as the binary container's payload
  // checksum, computed without touching the filesystem: the u64 at
  // header bytes 24..31 of a fresh save must equal it exactly.
  const Model model = TrainPlantedModel();
  ScopedFile file(TempPath("genclus_model_fingerprint.bin"));
  ASSERT_TRUE(SaveModelBinary(model, file.path()).ok());
  std::ifstream in(file.path(), std::ios::binary);
  ASSERT_TRUE(in.good());
  in.seekg(24);
  uint64_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  ASSERT_TRUE(in.good());
  EXPECT_EQ(model.Fingerprint(), stored);

  // Stable across copies and round-trips; sensitive to any content bit.
  const Model copy = model;
  EXPECT_EQ(copy.Fingerprint(), model.Fingerprint());
  auto loaded = LoadModelBinary(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().Fingerprint(), model.Fingerprint());
  Model perturbed = model;
  perturbed.theta(0, 0) = perturbed.theta(0, 0) * (1.0 + 1e-12);
  EXPECT_NE(perturbed.Fingerprint(), model.Fingerprint());
}

TEST(ModelIoTest, SuccessfulSavesLeaveNoTempDebris) {
  // Saves commit through a sibling .tmp + rename; on success the temp
  // must be gone and only the target remain.
  const Model model = TrainPlantedModel();
  ScopedFile file(TempPath("genclus_model_atomic.bin"));
  ASSERT_TRUE(SaveModelBinary(model, file.path()).ok());
  EXPECT_TRUE(std::filesystem::exists(file.path()));
  EXPECT_FALSE(std::filesystem::exists(file.path() + ".tmp"));
}

#if defined(GENCLUS_FAILPOINTS)
TEST(ModelIoTest, InjectedSaveCrashLeavesPreviousFileIntact) {
  // "model_io.save" simulates a crash mid-write: the save fails, but the
  // previously committed file must survive byte-for-byte — the whole
  // point of the write-to-temp + rename protocol.
  const Model model = TrainPlantedModel();
  ScopedFile file(TempPath("genclus_model_crash.bin"));
  ScopedFile debris(file.path() + ".tmp");
  ASSERT_TRUE(SaveModelBinary(model, file.path()).ok());
  const std::string committed = ReadFileBytes(file.path());

  Failpoints::Arm("model_io.save", {.max_fires = 1});
  const Status crashed = SaveModelBinary(model, file.path());
  Failpoints::DisarmAll();
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.code(), StatusCode::kIoError);
  // Target intact; the half-written temp is the only residue.
  EXPECT_EQ(ReadFileBytes(file.path()), committed);

  // And the survivor still loads.
  EXPECT_TRUE(LoadModelBinary(file.path()).ok());
}

TEST(ModelIoTest, InjectedLoadTruncationFailsCleanly) {
  // "model_io.load" halves the in-memory file image: every downstream
  // bounds check must turn that into a clean IoError, never a crash.
  const Model model = TrainPlantedModel();
  ScopedFile file(TempPath("genclus_model_load_trunc.bin"));
  ASSERT_TRUE(SaveModelBinary(model, file.path()).ok());
  Failpoints::Arm("model_io.load", {.max_fires = 1});
  auto loaded = LoadModelBinary(file.path());
  Failpoints::DisarmAll();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}
#endif

}  // namespace
}  // namespace genclus
