//===- tests/support/JsonTest.cpp -----------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

using namespace elfie;

namespace {

std::string quoted(std::string_view S) {
  std::string Out;
  json::appendString(Out, S);
  return Out;
}

TEST(Json, EscapeTable) {
  EXPECT_EQ(quoted(""), "\"\"");
  EXPECT_EQ(quoted("plain /path.elfie"), "\"plain /path.elfie\"");
  EXPECT_EQ(quoted("\""), "\"\\\"\"");
  EXPECT_EQ(quoted("\\"), "\"\\\\\"");
  EXPECT_EQ(quoted("\n"), "\"\\n\"");
  EXPECT_EQ(quoted("\r"), "\"\\r\"");
  EXPECT_EQ(quoted("\t"), "\"\\t\"");
  EXPECT_EQ(quoted(std::string_view("\0", 1)), "\"\\u0000\"");
  EXPECT_EQ(quoted("\x01"), "\"\\u0001\"");
  EXPECT_EQ(quoted("\b\f"), "\"\\u0008\\u000c\"");
  EXPECT_EQ(quoted("\x1f"), "\"\\u001f\"");
  // DEL and bytes >= 0x80 (UTF-8) pass through untouched.
  EXPECT_EQ(quoted("\x7f \xc3\xa9"), "\"\x7f \xc3\xa9\"");
}

TEST(Json, EmptyContainers) {
  json::Writer O;
  O.beginObject().endObject();
  EXPECT_EQ(O.str(), "{}");
  json::Writer A;
  A.beginArray().endArray();
  EXPECT_EQ(A.str(), "[]");
}

TEST(Json, CommasAndNesting) {
  json::Writer W;
  W.beginObject();
  W.key("s").string("a\"b");
  W.key("i").i64(-5);
  W.key("u").u64(18446744073709551615ull);
  W.key("t").boolean(true);
  W.key("f").boolean(false);
  W.key("x").number("1.500");
  W.key("empty").beginArray().endArray();
  W.key("list").beginArray();
  W.u64(1).string("two").beginObject().key("k").u64(3).endObject();
  W.beginArray().endArray();
  W.endArray();
  W.key("obj").beginObject();
  W.key("in").beginObject().endObject();
  W.key("after").u64(0);
  W.endObject();
  W.endObject();
  EXPECT_EQ(W.str(),
            "{\"s\":\"a\\\"b\",\"i\":-5,\"u\":18446744073709551615,"
            "\"t\":true,\"f\":false,\"x\":1.500,\"empty\":[],"
            "\"list\":[1,\"two\",{\"k\":3},[]],"
            "\"obj\":{\"in\":{},\"after\":0}}");
}

TEST(Json, KeysAreEscaped) {
  json::Writer W;
  W.beginObject().key("a\"\\").u64(1).endObject();
  EXPECT_EQ(W.str(), "{\"a\\\"\\\\\":1}");
}

} // namespace
