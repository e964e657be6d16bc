/**
 * @file
 * Statistics package: values, naming, dumping, reset.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

using namespace bfree::sim;

TEST(Stats, ScalarAccumulates)
{
    StatGroup root("sim");
    Scalar s(root, "count", "a counter");
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    s += 2.5;
    ++s;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.set(7.0);
    EXPECT_DOUBLE_EQ(s.value(), 7.0);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, FullNamesNest)
{
    StatGroup root("sim");
    StatGroup child(root, "cache");
    Scalar s(child, "hits", "");
    EXPECT_EQ(s.fullName(), "sim.cache.hits");
    EXPECT_EQ(child.fullName(), "sim.cache");
}

TEST(Stats, VectorIndexedAccumulation)
{
    StatGroup root("sim");
    Vector v(root, "perBank", "", 4);
    v.add(0, 1.0);
    v.add(3, 2.0);
    v.add(3, 3.0);
    EXPECT_DOUBLE_EQ(v.value(0), 1.0);
    EXPECT_DOUBLE_EQ(v.value(3), 5.0);
    EXPECT_DOUBLE_EQ(v.total(), 6.0);
    EXPECT_EQ(v.size(), 4u);
}

TEST(StatsDeath, VectorOutOfRangePanics)
{
    StatGroup root("sim");
    Vector v(root, "v", "", 2);
    EXPECT_DEATH(v.add(2, 1.0), "out of range");
}

TEST(Stats, DumpContainsNamesValuesDescriptions)
{
    StatGroup root("sim");
    Scalar s(root, "count", "number of things");
    s += 42.0;
    std::ostringstream os;
    root.dumpAll(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("sim.count"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);
    EXPECT_NE(text.find("number of things"), std::string::npos);
}

TEST(Stats, DumpIsSortedByName)
{
    StatGroup root("sim");
    Scalar b(root, "bbb", "");
    Scalar a(root, "aaa", "");
    std::ostringstream os;
    root.dumpAll(os);
    const std::string text = os.str();
    EXPECT_LT(text.find("sim.aaa"), text.find("sim.bbb"));
}

TEST(Stats, ResetAllRecursesIntoChildren)
{
    StatGroup root("sim");
    StatGroup child(root, "sub");
    Scalar a(root, "a", "");
    Scalar b(child, "b", "");
    a += 1.0;
    b += 2.0;
    root.resetAll();
    EXPECT_DOUBLE_EQ(a.value(), 0.0);
    EXPECT_DOUBLE_EQ(b.value(), 0.0);
}

TEST(Stats, ChildGroupDumpsUnderParent)
{
    StatGroup root("top");
    StatGroup child(root, "inner");
    Scalar s(child, "x", "");
    std::ostringstream os;
    root.dumpAll(os);
    EXPECT_NE(os.str().find("top.inner.x"), std::string::npos);
}

TEST(Stats, StatUnregistersOnDestruction)
{
    StatGroup root("sim");
    {
        Scalar temp(root, "ephemeral", "");
        temp += 1.0;
    }
    Scalar keep(root, "keep", "");
    keep += 2.0;
    std::ostringstream os;
    root.dumpAll(os); // must not touch the dead stat
    EXPECT_EQ(os.str().find("ephemeral"), std::string::npos);
    EXPECT_NE(os.str().find("sim.keep"), std::string::npos);
}

TEST(Stats, FindStatAndChild)
{
    StatGroup root("sim");
    StatGroup child(root, "sub");
    Scalar s(child, "x", "");
    EXPECT_EQ(root.findChild("sub"), &child);
    EXPECT_EQ(root.findChild("nope"), nullptr);
    EXPECT_EQ(child.findStat("x"), &s);
    EXPECT_EQ(child.findStat("y"), nullptr);
}
