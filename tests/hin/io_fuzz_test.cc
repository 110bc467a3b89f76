// Hostile dataset files: a deterministic mutation campaign over a small
// saved dataset. Every mutant is written to disk and loaded; LoadDataset
// must return (no abort, no sanitizer report), and whatever it accepts
// must pass Dataset::Validate(). The mutations are
//   * truncation at every byte;
//   * every single-bit flip of every byte;
//   * seeded random byte overwrites;
//   * every line duplicated in place, and every pair of lines swapped;
//   * every token replaced by each of a set of hostile tokens (zero,
//     negative, NaN, infinities, values past uint32 and size_t, subnormals,
//     hex, signs, comment markers).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "hin/io.h"

namespace genclus {
namespace {

// Two object types, an inverse pair, both attribute kinds and labels. The
// vocabulary is 4 so that a single bit flip ('4' ^ 0x04) makes it 0.
Dataset MakeDataset() {
  Schema schema;
  const ObjectTypeId a = schema.AddObjectType("A").value();
  const ObjectTypeId b = schema.AddObjectType("B").value();
  const LinkTypeId ab = schema.AddLinkType("ab", a, b).value();
  const LinkTypeId ba = schema.AddLinkType("ba", b, a).value();
  EXPECT_TRUE(schema.SetInverse(ab, ba).ok());
  NetworkBuilder builder(schema);
  const NodeId a0 = builder.AddNode(a, "a0").value();
  const NodeId a1 = builder.AddNode(a).value();
  const NodeId b0 = builder.AddNode(b, "b0").value();
  EXPECT_TRUE(builder.AddLink(a0, b0, ab, 2.5).ok());
  EXPECT_TRUE(builder.AddLink(a1, b0, ab, 1.0).ok());
  EXPECT_TRUE(builder.AddLink(b0, a1, ba, 0.125).ok());
  Dataset dataset;
  dataset.network = std::move(builder).Build().value();
  Attribute text = Attribute::Categorical("text", 4, 3);
  EXPECT_TRUE(text.AddTermCount(a0, 2, 3.0).ok());
  EXPECT_TRUE(text.AddTermCount(a1, 3, 1.5).ok());
  Attribute temp = Attribute::Numerical("temp", 3);
  EXPECT_TRUE(temp.AddValue(b0, 12.25).ok());
  EXPECT_TRUE(temp.AddValue(b0, -3.5).ok());
  dataset.attributes.push_back(std::move(text));
  dataset.attributes.push_back(std::move(temp));
  dataset.labels = Labels(3);
  dataset.labels.Set(a0, 0);
  dataset.labels.Set(b0, 1);
  return dataset;
}

// The whitespace-separated fields of a dataset line.
std::vector<std::string> Fields(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> fields;
  for (std::string field; in >> field;) fields.push_back(field);
  return fields;
}

// `fields` separated by single spaces.
std::string JoinFields(const std::vector<std::string>& fields) {
  std::string out;
  for (const std::string& field : fields) {
    if (!out.empty()) out += ' ';
    out += field;
  }
  return out;
}

class IoFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(SaveDataset(MakeDataset(), path_).ok());
    std::ifstream in(path_, std::ios::binary);
    seed_.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    ASSERT_GT(seed_.size(), 100u);
    size_t begin = 0;
    for (size_t i = 0; i < seed_.size(); ++i) {
      if (seed_[i] == '\n') {
        lines_.push_back(seed_.substr(begin, i + 1 - begin));
        begin = i + 1;
      }
    }
    ASSERT_EQ(begin, seed_.size());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Loads `contents` and checks the contract; counts accepted mutants.
  void Check(const std::string& contents) {
    // A fresh file each time: rewriting a truncated one makes some file
    // systems flush it on close, which would dominate the run time.
    std::remove(path_.c_str());
    {
      std::ofstream out(path_, std::ios::binary);
      out << contents;
    }
    Result<Dataset> r = LoadDataset(path_);
    if (r.ok()) {
      ++accepted_;
      const Status valid = r->Validate();
      EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n--- mutant ---\n"
                              << contents;
    } else {
      EXPECT_FALSE(r.status().message().empty());
    }
  }

  static std::string Concat(const std::vector<std::string>& lines) {
    std::string out;
    for (const std::string& line : lines) out += line;
    return out;
  }

  std::string path_ = ::testing::TempDir() + "/genclus_io_fuzz_test.tsv";
  std::string seed_;
  std::vector<std::string> lines_;  // each with its '\n'
  size_t accepted_ = 0;
};

TEST_F(IoFuzzTest, SeedFileLoads) {
  Check(seed_);
  EXPECT_EQ(accepted_, 1u);
}

TEST_F(IoFuzzTest, TruncationAtEveryByte) {
  for (size_t len = 0; len < seed_.size(); ++len) {
    Check(seed_.substr(0, len));
  }
  // Every cut at a line end leaves a valid prefix.
  EXPECT_GE(accepted_, lines_.size());
}

TEST_F(IoFuzzTest, EveryBitFlip) {
  for (size_t i = 0; i < seed_.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = seed_;
      mutant[i] = static_cast<char>(mutant[i] ^ (1 << bit));
      Check(mutant);
    }
  }
}

TEST_F(IoFuzzTest, RandomByteOverwrites) {
  Rng rng(20241017);
  for (int round = 0; round < 1500; ++round) {
    std::string mutant = seed_;
    const size_t edits = 1 + rng.UniformIndex(4);
    for (size_t e = 0; e < edits; ++e) {
      mutant[rng.UniformIndex(mutant.size())] =
          static_cast<char>(rng.UniformIndex(256));
    }
    Check(mutant);
  }
}

TEST_F(IoFuzzTest, DuplicatedAndSwappedLines) {
  for (size_t i = 0; i < lines_.size(); ++i) {
    std::vector<std::string> mutant = lines_;
    mutant.insert(mutant.begin() + i, lines_[i]);
    Check(Concat(mutant));
  }
  for (size_t i = 0; i < lines_.size(); ++i) {
    for (size_t j = i + 1; j < lines_.size(); ++j) {
      std::vector<std::string> mutant = lines_;
      std::swap(mutant[i], mutant[j]);
      Check(Concat(mutant));
    }
  }
  EXPECT_GT(accepted_, 0u);
}

TEST_F(IoFuzzTest, HostileTokens) {
  const char* const kHostile[] = {
      "0",     "-1",          "4294967295",           "4294967296",
      "18446744073709551616", "nan",  "-inf",         "inf",
      "1e308", "1e-320",      "+1",   "0x1p3",        "-0",
      "#",     "A",           "ab",   "text",         "categorical"};
  for (size_t l = 0; l < lines_.size(); ++l) {
    const std::vector<std::string> tokens = Fields(lines_[l]);
    for (size_t t = 0; t < tokens.size(); ++t) {
      for (const char* hostile : kHostile) {
        std::vector<std::string> line = tokens;
        line[t] = hostile;
        std::vector<std::string> mutant = lines_;
        mutant[l] = JoinFields(line) + "\n";
        Check(Concat(mutant));
      }
    }
  }
  EXPECT_GT(accepted_, 0u);
}

}  // namespace
}  // namespace genclus
