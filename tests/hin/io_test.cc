#include "hin/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "datagen/dblp_generator.h"
#include "datagen/weather_generator.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::ExpectDatasetsEqual;

// Builds a small two-type dataset with both attribute kinds and labels.
Dataset MakeDataset() {
  Schema schema;
  auto a = schema.AddObjectType("A").value();
  auto b = schema.AddObjectType("B").value();
  auto ab = schema.AddLinkType("ab", a, b).value();
  auto ba = schema.AddLinkType("ba", b, a).value();
  (void)schema.SetInverse(ab, ba);

  NetworkBuilder builder(schema);
  NodeId a0 = builder.AddNode(a, "a0").value();
  NodeId a1 = builder.AddNode(a, "a1").value();
  NodeId b0 = builder.AddNode(b, "b0").value();
  EXPECT_TRUE(builder.AddLink(a0, b0, ab, 2.5).ok());
  EXPECT_TRUE(builder.AddLink(b0, a1, ba, 1.0).ok());

  Dataset dataset;
  dataset.network = std::move(builder).Build().value();
  Attribute text = Attribute::Categorical("text", 6, 3);
  (void)text.AddTermCount(a0, 2, 3.0);
  (void)text.AddTermCount(a1, 5, 1.0);
  Attribute temp = Attribute::Numerical("temp", 3);
  (void)temp.AddValue(b0, 12.25);
  (void)temp.AddValue(b0, -3.5);
  dataset.attributes.push_back(std::move(text));
  dataset.attributes.push_back(std::move(temp));
  dataset.labels = Labels(3);
  dataset.labels.Set(a0, 0);
  dataset.labels.Set(b0, 1);
  return dataset;
}

class IoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  // Writes `contents` verbatim (binary, so '\r' and NUL survive) to path_.
  void WriteFile(const std::string& contents) {
    std::ofstream out(path_, std::ios::binary);
    out << contents;
    out.close();
    ASSERT_TRUE(out) << "cannot write " << path_;
  }

  // Writes `contents` to path_ and loads it back.
  Result<Dataset> Load(const std::string& contents) {
    WriteFile(contents);
    return LoadDataset(path_);
  }

  // The "<path>:<line>: <why>" message of a rejected record.
  std::string At(size_t line, const std::string& why) const {
    return StrFormat("%s:%zu: %s", path_.c_str(), line, why.c_str());
  }

  // Saves `dataset`, loads it back and expects the two equal.
  void ExpectRoundTrip(const Dataset& dataset) {
    ASSERT_TRUE(SaveDataset(dataset, path_).ok());
    auto loaded = LoadDataset(path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectDatasetsEqual(dataset, *loaded);
  }

  std::string path_ = ::testing::TempDir() + "/genclus_io_test.tsv";
};

TEST_F(IoTest, RoundTripPreservesEverything) {
  Dataset original = MakeDataset();
  ASSERT_TRUE(SaveDataset(original, path_).ok());
  auto loaded = LoadDataset(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const Network& net = loaded->network;
  EXPECT_EQ(net.num_nodes(), 3u);
  EXPECT_EQ(net.num_links(), 2u);
  EXPECT_EQ(net.schema().num_object_types(), 2u);
  EXPECT_EQ(net.schema().num_link_types(), 2u);
  // Inverse pairing survives.
  LinkTypeId ab = net.schema().FindLinkType("ab");
  LinkTypeId ba = net.schema().FindLinkType("ba");
  EXPECT_EQ(net.schema().link_type(ab).inverse, ba);
  // Link weight survives.
  EXPECT_DOUBLE_EQ(net.LinkWeight(0, 2, ab), 2.5);
  // Node names survive.
  EXPECT_EQ(net.node_name(1), "a1");

  ASSERT_EQ(loaded->attributes.size(), 2u);
  const Attribute& text = loaded->attributes[0];
  EXPECT_EQ(text.kind(), AttributeKind::kCategorical);
  EXPECT_EQ(text.vocab_size(), 6u);
  ASSERT_EQ(text.TermCounts(0).size(), 1u);
  EXPECT_EQ(text.TermCounts(0)[0].term, 2u);
  EXPECT_DOUBLE_EQ(text.TermCounts(0)[0].count, 3.0);
  const Attribute& temp = loaded->attributes[1];
  EXPECT_EQ(temp.kind(), AttributeKind::kNumerical);
  ASSERT_EQ(temp.Values(2).size(), 2u);
  EXPECT_DOUBLE_EQ(temp.Values(2)[1], -3.5);

  EXPECT_EQ(loaded->labels.Get(0), 0u);
  EXPECT_EQ(loaded->labels.Get(2), 1u);
  EXPECT_FALSE(loaded->labels.IsLabeled(1));
}

TEST_F(IoTest, RoundTripsGeneratedAcpNetwork) {
  DblpConfig config;
  config.seed = 21;
  auto corpus = GenerateDblpCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  auto acp = BuildAcpNetwork(*corpus, config);
  ASSERT_TRUE(acp.ok()) << acp.status().ToString();
  ExpectRoundTrip(acp->dataset);
}

TEST_F(IoTest, RoundTripsGeneratedWeatherNetwork) {
  WeatherConfig config = WeatherConfig::Setting1();
  config.seed = 21;
  auto weather = GenerateWeatherNetwork(config);
  ASSERT_TRUE(weather.ok()) << weather.status().ToString();
  ExpectRoundTrip(weather->dataset);
}

// The builders accept any positive finite weight or count and any finite
// value, subnormals included, so the file format must carry them back.
TEST_F(IoTest, RoundTripsSubnormalValues) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  Dataset dataset = MakeDataset();
  Schema schema = dataset.network.schema();
  NetworkBuilder builder(schema);
  NodeId a0 = builder.AddNode(0, "a0").value();
  NodeId b0 = builder.AddNode(1, "b0").value();
  ASSERT_TRUE(builder.AddLink(a0, b0, 0, 1e-310).ok());
  ASSERT_TRUE(builder.AddLink(b0, a0, 1, tiny).ok());
  dataset.network = std::move(builder).Build().value();
  Attribute text = Attribute::Categorical("text", 3, 2);
  ASSERT_TRUE(text.AddTermCount(a0, 1, 3e-320).ok());
  Attribute temp = Attribute::Numerical("temp", 2);
  ASSERT_TRUE(temp.AddValue(b0, -tiny).ok());
  ASSERT_TRUE(temp.AddValue(b0, 2.2250738585072009e-308).ok());
  dataset.attributes = {std::move(text), std::move(temp)};
  dataset.labels = Labels();

  ExpectRoundTrip(dataset);
  auto loaded = LoadDataset(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->network.LinkWeight(a0, b0, 0), 1e-310);
  EXPECT_EQ(loaded->network.LinkWeight(b0, a0, 1), tiny);
  EXPECT_EQ(loaded->attributes[0].TermCounts(a0)[0].count, 3e-320);
  EXPECT_EQ(loaded->attributes[1].Values(b0)[0], -tiny);
}

TEST_F(IoTest, LoadsSubnormalTokens) {
  auto r = Load(
      "object_type A\nlink_type r A A\nnode A\nnode A\n"
      "link 0 1 r 1e-310\nattribute numerical x\n"
      "obs_value x 0 4.9406564584124654e-324\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->network.LinkWeight(0, 1, 0), 1e-310);
  EXPECT_EQ(r->attributes[0].Values(0)[0],
            std::numeric_limits<double>::denorm_min());
}

TEST_F(IoTest, NumberSyntax) {
  // A leading '+' and hex floats still parse; a value that overflows, or
  // underflows all the way to zero, does not.
  auto r = Load(
      "object_type A\nlink_type r A A\nnode A\nnode A\n"
      "link 0 1 r +1.5\nlink 1 0 r 0x1p3\nattribute numerical x\n"
      "obs_value x 0 -0x1.8p1\nobs_value x 1 +2e-3\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->network.LinkWeight(0, 1, 0), 1.5);
  EXPECT_EQ(r->network.LinkWeight(1, 0, 0), 8.0);
  EXPECT_EQ(r->attributes[0].Values(0)[0], -3.0);
  EXPECT_EQ(r->attributes[0].Values(1)[0], 2e-3);

  for (const char* weight : {"1e999", "1e-400", "-1e999", "1.5x", "0x"}) {
    r = Load(std::string("object_type A\nlink_type r A A\nnode A\n"
                         "link 0 0 r ") +
             weight + "\n");
    ASSERT_FALSE(r.ok()) << weight;
    EXPECT_EQ(r.status().message(),
              At(4, "link has malformed numeric field"))
        << weight;
  }
}

TEST_F(IoTest, LoadRejectsMissingFile) {
  auto r = LoadDataset("/nonexistent/path/file.tsv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_EQ(r.status().message(), "cannot open '/nonexistent/path/file.tsv'");
}

// Reading a directory opens fine and then fails in read(2); that must not
// pass for an empty dataset.
TEST_F(IoTest, LoadRejectsUnreadableFile) {
  auto r = LoadDataset(::testing::TempDir());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(IoTest, LoadRejectsZeroVocabulary) {
  auto r = Load("object_type A\nnode A\nattribute categorical t 0\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_EQ(r.status().message(), At(3, "vocabulary size must be positive"));
}

TEST_F(IoTest, LoadRejectsGarbageRecord) {
  std::ofstream out(path_);
  out << "object_type A\nnonsense 1 2 3\n";
  out.close();
  auto r = LoadDataset(path_);
  EXPECT_FALSE(r.ok());
}

TEST_F(IoTest, LoadRejectsUnknownLinkType) {
  std::ofstream out(path_);
  out << "object_type A\nnode A x\nnode A y\nlink 0 1 ghost 1.0\n";
  out.close();
  auto r = LoadDataset(path_);
  EXPECT_FALSE(r.ok());
}

// Every rejection, with its status code and full message. The cases append
// to a fixed 8-line prelude, so their first line is line 9.
struct RejectCase {
  const char* records;
  StatusCode code;
  size_t line;  // 0: the message carries no "<path>:<line>: " prefix
  const char* why;
};

constexpr char kPrelude[] =
    "object_type A\n"
    "object_type B\n"
    "link_type ab A B\n"
    "link_type ba B A\n"
    "node A a0\n"
    "node B b0\n"
    "attribute categorical t 4\n"
    "attribute numerical v\n";

const RejectCase kRejectCases[] = {
    // Field counts.
    {"object_type\n", StatusCode::kIoError, 9, "object_type needs 1 field"},
    {"object_type C D\n", StatusCode::kIoError, 9,
     "object_type needs 1 field"},
    {"link_type ca A\n", StatusCode::kIoError, 9, "link_type needs 3 fields"},
    {"link_type ca A B C\n", StatusCode::kIoError, 9,
     "link_type needs 3 fields"},
    {"inverse ab\n", StatusCode::kIoError, 9, "inverse needs 2 fields"},
    {"inverse ab ba ab\n", StatusCode::kIoError, 9, "inverse needs 2 fields"},
    {"node\n", StatusCode::kIoError, 9, "node needs at least 1 field"},
    {"link 0 1 ab\n", StatusCode::kIoError, 9, "link needs 4 fields"},
    {"link 0 1 ab 1 1\n", StatusCode::kIoError, 9, "link needs 4 fields"},
    {"attribute numerical\n", StatusCode::kIoError, 9,
     "attribute needs at least 2 fields"},
    {"attribute categorical u\n", StatusCode::kIoError, 9,
     "categorical attribute needs vocab"},
    {"attribute categorical u 4 4\n", StatusCode::kIoError, 9,
     "categorical attribute needs vocab"},
    {"attribute ordinal u\n", StatusCode::kIoError, 9,
     "unknown attribute kind"},
    {"obs_term t 0 1\n", StatusCode::kIoError, 9, "obs_term needs 4 fields"},
    {"obs_term t 0 1 1 1\n", StatusCode::kIoError, 9,
     "obs_term needs 4 fields"},
    {"obs_value v 0\n", StatusCode::kIoError, 9, "obs_value needs 3 fields"},
    {"obs_value v 0 1 1\n", StatusCode::kIoError, 9,
     "obs_value needs 3 fields"},
    {"label 0\n", StatusCode::kIoError, 9, "label needs 2 fields"},
    {"label 0 0 0\n", StatusCode::kIoError, 9, "label needs 2 fields"},
    // Malformed numeric fields.
    {"link x 1 ab 1\n", StatusCode::kIoError, 9,
     "link has malformed numeric field"},
    {"link 0 -1 ab 1\n", StatusCode::kIoError, 9,
     "link has malformed numeric field"},
    {"link 4294967296 1 ab 1\n", StatusCode::kIoError, 9,
     "link has malformed numeric field"},
    {"link 0 1 ab one\n", StatusCode::kIoError, 9,
     "link has malformed numeric field"},
    {"link 0 1 ab 1e999\n", StatusCode::kIoError, 9,
     "link has malformed numeric field"},
    {"attribute categorical u four\n", StatusCode::kIoError, 9,
     "malformed vocabulary size"},
    {"attribute categorical u -4\n", StatusCode::kIoError, 9,
     "malformed vocabulary size"},
    {"attribute categorical u +4\n", StatusCode::kIoError, 9,
     "malformed vocabulary size"},
    {"attribute categorical u 4.0\n", StatusCode::kIoError, 9,
     "malformed vocabulary size"},
    {"obs_term t x 1 1\n", StatusCode::kIoError, 9,
     "obs_term has malformed numeric field"},
    {"obs_term t 0 4294967296 1\n", StatusCode::kIoError, 9,
     "obs_term has malformed numeric field"},
    {"obs_term t 0 1 1,5\n", StatusCode::kIoError, 9,
     "obs_term has malformed numeric field"},
    {"obs_value v 0x 1\n", StatusCode::kIoError, 9,
     "obs_value has malformed numeric field"},
    {"obs_value v 0 --1\n", StatusCode::kIoError, 9,
     "obs_value has malformed numeric field"},
    {"label x 0\n", StatusCode::kIoError, 9,
     "label has malformed numeric field"},
    {"label 0 -1\n", StatusCode::kIoError, 9,
     "label has malformed numeric field"},
    // Unknown records and names.
    {"frobnicate 1 2\n", StatusCode::kIoError, 9, "unknown record type"},
    {"Node A\n", StatusCode::kIoError, 9, "unknown record type"},
    {"link_type ca C A\n", StatusCode::kIoError, 9,
     "link_type references unknown object type"},
    {"object_type A\n", StatusCode::kAlreadyExists, 0,
     "object type 'A' already declared"},
    {"link_type ab A B\n", StatusCode::kAlreadyExists, 0,
     "link type 'ab' already declared"},
    {"inverse ab zz\n", StatusCode::kIoError, 0,
     "inverse references unknown link type"},
    {"inverse ab ab\n", StatusCode::kInvalidArgument, 0,
     "SetInverse: 'ab' and 'ab' endpoint types do not mirror"},
    {"node C c0\n", StatusCode::kIoError, 0,
     "node references unknown object type 'C'"},
    {"link 0 1 zz 1\n", StatusCode::kIoError, 0,
     "link references unknown type 'zz'"},
    {"obs_term u 0 1 1\n", StatusCode::kIoError, 9,
     "obs_term references unknown attribute"},
    {"obs_value u 0 1\n", StatusCode::kIoError, 9,
     "obs_value references unknown attribute"},
    // Links the builder refuses.
    {"link 0 2 ab 1\n", StatusCode::kInvalidArgument, 0,
     "link 0 -> 2 addresses a node past the node count 2"},
    {"link 1 0 ab 1\n", StatusCode::kInvalidArgument, 0,
     "link type 'ab' expects (A -> B) but got (B -> A)"},
    {"link 0 1 ab 0\n", StatusCode::kInvalidArgument, 0,
     "link 0 -> 1: weight must be positive finite"},
    {"link 0 1 ab -2\n", StatusCode::kInvalidArgument, 0,
     "link 0 -> 1: weight must be positive finite"},
    {"link 0 1 ab nan\n", StatusCode::kInvalidArgument, 0,
     "link 0 -> 1: weight must be positive finite"},
    {"link 0 1 ab inf\n", StatusCode::kInvalidArgument, 0,
     "link 0 -> 1: weight must be positive finite"},
    // Observations the attributes refuse.
    {"obs_term v 0 1 1\n", StatusCode::kFailedPrecondition, 9,
     "attribute 'v' is not categorical"},
    {"obs_value t 0 1\n", StatusCode::kFailedPrecondition, 9,
     "attribute 't' is not numerical"},
    {"obs_term t 2 1 1\n", StatusCode::kInvalidArgument, 9,
     "attribute 't': node 2 out of range (2 nodes)"},
    {"obs_term t 0 4 1\n", StatusCode::kInvalidArgument, 9,
     "term 4 out of vocabulary (size 4)"},
    {"obs_term t 0 1 0\n", StatusCode::kInvalidArgument, 9,
     "attribute 't': term count must be positive finite"},
    {"obs_term t 0 1 -inf\n", StatusCode::kInvalidArgument, 9,
     "attribute 't': term count must be positive finite"},
    {"obs_term t 0 1 1.5e100\n", StatusCode::kInvalidArgument, 9,
     "attribute 't': term count 1.5e+100 exceeds 1e+100"},
    {"obs_term t 0 1 1\nobs_value v 0 1\nobs_term t 1 3 1.5e100\n",
     StatusCode::kInvalidArgument, 11,
     "attribute 't': term count 1.5e+100 exceeds 1e+100"},
    {"obs_value v 7 1\n", StatusCode::kInvalidArgument, 9,
     "attribute 'v': node 7 out of range (2 nodes)"},
    {"obs_value v 0 nan\n", StatusCode::kInvalidArgument, 9,
     "attribute 'v': value must be finite"},
    {"obs_value v 0 -1e160\n", StatusCode::kInvalidArgument, 9,
     "attribute 'v': value -1e+160 exceeds 1e+100 in magnitude"},
    // Labels past the node count.
    {"label 2 0\n", StatusCode::kIoError, 0, "label references unknown node"},
};

TEST_F(IoTest, RejectionsCarryCodeAndMessage) {
  ASSERT_TRUE(Load(kPrelude).ok());
  for (const RejectCase& c : kRejectCases) {
    SCOPED_TRACE(c.records);
    auto r = Load(std::string(kPrelude) + c.records);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), c.code);
    EXPECT_EQ(r.status().message(), c.line > 0 ? At(c.line, c.why) : c.why);
  }
}

// A scan error wins over a later-step error of an earlier line, and the
// later steps report the first offender in their own order.
TEST_F(IoTest, RejectionOrder) {
  auto r = Load(std::string(kPrelude) + "node C c0\nbogus\n");
  EXPECT_EQ(r.status().message(), At(10, "unknown record type"));
  r = Load(std::string(kPrelude) + "obs_term u 0 1 1\nnode C c0\n");
  EXPECT_EQ(r.status().message(), "node references unknown object type 'C'");
  r = Load(std::string(kPrelude) + "node D d0\nnode C c0\n");
  EXPECT_EQ(r.status().message(), "node references unknown object type 'D'");
}

TEST_F(IoTest, CommentsAndBlankLinesIgnored) {
  std::ofstream out(path_);
  out << "# a comment\n\nobject_type A\n  \nnode A solo\n";
  out.close();
  auto r = LoadDataset(path_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->network.num_nodes(), 1u);
}

TEST_F(IoTest, IndentedCommentsAndLineNumbers) {
  auto r = Load(" # one\n\t#two\n#\nobject_type A\n\n   \nnode A x # y\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->network.num_nodes(), 1u);
  EXPECT_EQ(r->network.node_name(0), "x");
  // A '#' after the first field is a token, not a comment.
  r = Load(" # one\n\nobject_type A # B\n");
  EXPECT_EQ(r.status().message(), At(3, "object_type needs 1 field"));
}

TEST_F(IoTest, EmptyFileLoadsEmptyDataset) {
  for (const char* contents : {"", "\n\n", "# only a comment", " \t\r\n"}) {
    auto r = Load(contents);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->network.num_nodes(), 0u);
    EXPECT_EQ(r->network.schema().num_object_types(), 0u);
    EXPECT_TRUE(r->attributes.empty());
    EXPECT_EQ(r->labels.size(), 0u);
  }
}

TEST_F(IoTest, CrlfLineEndings) {
  auto r = Load(
      "object_type A\r\nlink_type r A A\r\nnode A x\r\nnode A\r\n"
      "link 0 1 r 2.5\r\nattribute numerical v\r\nobs_value v 1 -1\r\n"
      "label 1 3\r\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->network.node_name(0), "x");
  EXPECT_EQ(r->network.node_name(1), "");
  EXPECT_EQ(r->network.LinkWeight(0, 1, 0), 2.5);
  EXPECT_EQ(r->attributes[0].Values(1)[0], -1.0);
  EXPECT_EQ(r->labels.Get(1), 3u);
  // A lone '\r' separates fields but does not end the line.
  r = Load("object_type A\rB\n");
  EXPECT_EQ(r.status().message(), At(1, "object_type needs 1 field"));
}

TEST_F(IoTest, LastLineWithoutNewline) {
  auto r = Load("object_type A\nnode A x\nnode A last");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->network.num_nodes(), 2u);
  EXPECT_EQ(r->network.node_name(1), "last");
  r = Load("object_type A\nnode A x\nbogus");
  EXPECT_EQ(r.status().message(), At(3, "unknown record type"));
}

TEST_F(IoTest, WhitespaceSeparators) {
  auto r = Load(
      "object_type\tA\n\vlink_type r\fA  A\nnode\t\tA\vx\f\n"
      "node A y\nlink\t1 0\vr\f4\t\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->network.num_nodes(), 2u);
  EXPECT_EQ(r->network.node_name(0), "x");
  EXPECT_EQ(r->network.LinkWeight(1, 0, 0), 4.0);
}

TEST_F(IoTest, NulByteInsideToken) {
  std::string contents = "object_type A\nnode A na";
  contents += '\0';
  contents += "me\n";
  auto r = Load(contents);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->network.node_name(0), std::string("na\0me", 5));

  contents = "object_type A\nlink_type r A A\nnode A\nlink 0 0 r 1";
  contents += '\0';
  contents += '\n';
  r = Load(contents);
  EXPECT_EQ(r.status().message(), At(4, "link has malformed numeric field"));
}

// A file of several MiB, so records straddle the reader's block
// boundaries at many offsets; varying name lengths shift where they fall.
TEST_F(IoTest, RecordsStraddlingReadBlocks) {
  Schema schema;
  const ObjectTypeId a = schema.AddObjectType("A").value();
  const LinkTypeId r = schema.AddLinkType("r", a, a).value();
  NetworkBuilder builder(schema);
  const NodeId n = 40000;
  for (NodeId v = 0; v < n; ++v) {
    const std::string name(1 + v % 37, static_cast<char>('a' + v % 26));
    ASSERT_TRUE(builder.AddNode(a, name).ok());
  }
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId k = 1; k <= 3; ++k) {
      const double weight = 0.1 * k + 1e-9 * v;
      ASSERT_TRUE(builder.AddLink(v, (v * 7 + k) % n, r, weight).ok());
    }
  }
  Dataset dataset;
  dataset.network = std::move(builder).Build().value();
  Attribute x = Attribute::Numerical("x", n);
  for (NodeId v = 0; v < n; v += 2) {
    ASSERT_TRUE(x.AddValue(v, 1.0 / (v + 3.0)).ok());
  }
  dataset.attributes.push_back(std::move(x));
  ExpectRoundTrip(dataset);
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  EXPECT_GT(static_cast<size_t>(in.tellg()), size_t{4} << 20);
}

// One line longer than any read block: a 4 MiB node name, followed by
// more records, and once more as the last line with no newline.
TEST_F(IoTest, LineLongerThanReadBlock) {
  const std::string name(size_t{4} << 20, 'n');
  auto r = Load("object_type A\nnode A " + name + "\nnode A y\nnode A " +
                name + "z");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->network.num_nodes(), 3u);
  EXPECT_EQ(r->network.node_name(0), name);
  EXPECT_EQ(r->network.node_name(1), "y");
  EXPECT_EQ(r->network.node_name(2), name + "z");
}

TEST_F(IoTest, SaveRejectsInvalidDataset) {
  Dataset broken = MakeDataset();
  // Attribute sized for the wrong node count.
  broken.attributes.push_back(Attribute::Numerical("bad", 99));
  EXPECT_FALSE(SaveDataset(broken, path_).ok());
}

}  // namespace
}  // namespace genclus
