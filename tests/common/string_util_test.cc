#include "common/string_util.h"

#include <gtest/gtest.h>

namespace genclus {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrFormatTest, LongOutput) {
  std::string long_arg(500, 'a');
  std::string out = StrFormat("[%s]", long_arg.c_str());
  EXPECT_EQ(out.size(), 502u);
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), ']');
}

}  // namespace
}  // namespace genclus
