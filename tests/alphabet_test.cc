#include "tree/alphabet.h"

#include <gtest/gtest.h>

namespace xpwqo {
namespace {

TEST(AlphabetTest, InternAssignsDenseIds) {
  Alphabet a;
  EXPECT_EQ(a.Intern("x"), 0);
  EXPECT_EQ(a.Intern("y"), 1);
  EXPECT_EQ(a.Intern("z"), 2);
  EXPECT_EQ(a.size(), 3);
}

TEST(AlphabetTest, InternIsIdempotent) {
  Alphabet a;
  LabelId x = a.Intern("x");
  a.Intern("y");
  EXPECT_EQ(a.Intern("x"), x);
  EXPECT_EQ(a.size(), 2);
}

TEST(AlphabetTest, FindReturnsKNoLabelForUnknown) {
  Alphabet a;
  a.Intern("x");
  EXPECT_EQ(a.Find("nope"), kNoLabel);
  EXPECT_EQ(a.Find("x"), 0);
}

TEST(AlphabetTest, NameRoundTrips) {
  Alphabet a;
  LabelId id = a.Intern("keyword");
  EXPECT_EQ(a.Name(id), "keyword");
}

TEST(AlphabetTest, SpecialLabelNamesAreOrdinary) {
  Alphabet a;
  LabelId text = a.Intern("#text");
  LabelId attr = a.Intern("@id");
  EXPECT_NE(text, attr);
  EXPECT_EQ(a.Name(text), "#text");
  EXPECT_EQ(a.Name(attr), "@id");
  a.Intern("book");
  EXPECT_EQ(a.Intern("@id"), attr);
  EXPECT_EQ(a.size(), 3);  // '#text', '@id', 'book'; '@id' once
}

}  // namespace
}  // namespace xpwqo
