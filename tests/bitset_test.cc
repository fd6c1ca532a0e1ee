#include "util/bitset.h"

#include <gtest/gtest.h>

#include <vector>

namespace hcpath {
namespace {

TEST(DynamicBitset, SetTestClear) {
  DynamicBitset bs(130);
  EXPECT_EQ(bs.size(), 130u);
  EXPECT_FALSE(bs.Test(0));
  bs.Set(0);
  bs.Set(64);
  bs.Set(129);
  EXPECT_TRUE(bs.Test(0));
  EXPECT_TRUE(bs.Test(64));
  EXPECT_TRUE(bs.Test(129));
  EXPECT_FALSE(bs.Test(1));
  bs.Clear(64);
  EXPECT_FALSE(bs.Test(64));
}

TEST(DynamicBitset, CountAndAny) {
  DynamicBitset bs(200);
  EXPECT_EQ(bs.Count(), 0u);
  EXPECT_FALSE(bs.Any());
  for (size_t i = 0; i < 200; i += 7) bs.Set(i);
  EXPECT_EQ(bs.Count(), 29u);
  EXPECT_TRUE(bs.Any());
  bs.Reset();
  EXPECT_EQ(bs.Count(), 0u);
}

TEST(DynamicBitset, UnionAndIntersect) {
  DynamicBitset a(100), b(100);
  a.Set(1);
  a.Set(50);
  b.Set(50);
  b.Set(99);
  DynamicBitset u = a;
  u.UnionWith(b);
  EXPECT_TRUE(u.Test(1));
  EXPECT_TRUE(u.Test(50));
  EXPECT_TRUE(u.Test(99));
  DynamicBitset i = a;
  i.IntersectWith(b);
  EXPECT_FALSE(i.Test(1));
  EXPECT_TRUE(i.Test(50));
  EXPECT_FALSE(i.Test(99));
}

TEST(DynamicBitset, ResizeClears) {
  DynamicBitset bs(64);
  bs.Set(10);
  bs.Resize(128);
  EXPECT_FALSE(bs.Test(10));
  EXPECT_EQ(bs.size(), 128u);
}

}  // namespace
}  // namespace hcpath
