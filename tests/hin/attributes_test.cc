#include "hin/attributes.h"

#include <gtest/gtest.h>

#include <cmath>

namespace genclus {
namespace {

TEST(CategoricalAttributeTest, BasicObservations) {
  Attribute text = Attribute::Categorical("text", 10, 3);
  EXPECT_EQ(text.kind(), AttributeKind::kCategorical);
  EXPECT_EQ(text.vocab_size(), 10u);
  EXPECT_TRUE(text.AddTermCount(0, 2, 1.0).ok());
  EXPECT_TRUE(text.AddTermCount(0, 5, 3.0).ok());
  EXPECT_TRUE(text.HasObservations(0));
  EXPECT_FALSE(text.HasObservations(1));
  ASSERT_EQ(text.TermCounts(0).size(), 2u);
  EXPECT_EQ(text.TermCounts(1).size(), 0u);
}

TEST(CategoricalAttributeTest, AccumulatesRepeatedTerms) {
  Attribute text = Attribute::Categorical("text", 4, 1);
  EXPECT_TRUE(text.AddTermCount(0, 1, 1.0).ok());
  EXPECT_TRUE(text.AddTermCount(0, 1, 2.5).ok());
  ASSERT_EQ(text.TermCounts(0).size(), 1u);
  EXPECT_DOUBLE_EQ(text.TermCounts(0)[0].count, 3.5);
}

TEST(CategoricalAttributeTest, RejectsBadInput) {
  Attribute text = Attribute::Categorical("text", 4, 2);
  EXPECT_FALSE(text.AddTermCount(5, 0, 1.0).ok());   // node out of range
  EXPECT_FALSE(text.AddTermCount(0, 4, 1.0).ok());   // term out of vocab
  EXPECT_FALSE(text.AddTermCount(0, 0, 0.0).ok());   // non-positive count
  EXPECT_FALSE(text.AddTermCount(0, 0, -1.0).ok());
  EXPECT_FALSE(text.AddValue(0, 1.0).ok());          // wrong kind
  // Counts up to the bound only, so every M-step sum stays finite.
  EXPECT_TRUE(text.AddTermCount(0, 0, kMaxObservationMagnitude).ok());
  EXPECT_FALSE(text.AddTermCount(1, 0, 1.01 * kMaxObservationMagnitude).ok());
  EXPECT_FALSE(text.HasObservations(1));
}

TEST(NumericalAttributeTest, BasicObservations) {
  Attribute temp = Attribute::Numerical("temp", 3);
  EXPECT_EQ(temp.kind(), AttributeKind::kNumerical);
  EXPECT_TRUE(temp.AddValue(1, 20.5).ok());
  EXPECT_TRUE(temp.AddValue(1, 21.0).ok());
  EXPECT_FALSE(temp.HasObservations(0));
  EXPECT_TRUE(temp.HasObservations(1));
  ASSERT_EQ(temp.Values(1).size(), 2u);
  EXPECT_DOUBLE_EQ(temp.Values(1)[0], 20.5);
}

TEST(NumericalAttributeTest, RejectsBadInput) {
  Attribute temp = Attribute::Numerical("temp", 2);
  EXPECT_FALSE(temp.AddValue(5, 1.0).ok());
  EXPECT_FALSE(temp.AddValue(0, std::nan("")).ok());
  EXPECT_FALSE(temp.AddTermCount(0, 0, 1.0).ok());  // wrong kind
  // Magnitudes up to the bound only: a square of 1e160 overflows.
  EXPECT_TRUE(temp.AddValue(0, -kMaxObservationMagnitude).ok());
  EXPECT_FALSE(temp.AddValue(1, 1e160).ok());
  EXPECT_FALSE(temp.AddValue(1, -1e160).ok());
  EXPECT_FALSE(temp.HasObservations(1));
}

TEST(AttributeTest, TotalObservationsCategorical) {
  Attribute text = Attribute::Categorical("text", 8, 2);
  (void)text.AddTermCount(0, 1, 2.0);
  (void)text.AddTermCount(1, 3, 1.0);
  (void)text.AddTermCount(1, 4, 1.0);
  EXPECT_DOUBLE_EQ(text.TotalObservations(), 4.0);
  EXPECT_EQ(text.NumObservedNodes(), 2u);
}

TEST(AttributeTest, TotalObservationsNumerical) {
  Attribute temp = Attribute::Numerical("temp", 3);
  (void)temp.AddValue(0, 1.0);
  (void)temp.AddValue(0, 2.0);
  (void)temp.AddValue(2, 3.0);
  EXPECT_DOUBLE_EQ(temp.TotalObservations(), 3.0);
  EXPECT_EQ(temp.NumObservedNodes(), 2u);
}

TEST(AttributeTest, IncompletenessIsTheDefault) {
  // A fresh attribute has zero observations anywhere — this is the
  // incomplete-attribute configuration GenClus must handle.
  Attribute text = Attribute::Categorical("text", 5, 100);
  EXPECT_EQ(text.NumObservedNodes(), 0u);
  for (NodeId v = 0; v < 100; ++v) {
    EXPECT_FALSE(text.HasObservations(v));
  }
}

TEST(AttributeTest, TermNames) {
  Attribute text = Attribute::Categorical("text", 2, 1);
  text.SetTermNames({"database", "mining"});
  ASSERT_EQ(text.term_names().size(), 2u);
  EXPECT_EQ(text.term_names()[1], "mining");
}

}  // namespace
}  // namespace genclus
