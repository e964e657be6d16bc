/**
 * @file
 * Statistics package: values, naming, dumping, reset.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <utility>

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

TEST(StatsMerge, ScalarAdds)
{
    StatGroup a("a"), b("b");
    Scalar sa(a, "s", ""), sb(b, "s", "");
    sa += 3.0;
    sb += 4.5;
    EXPECT_TRUE(sa.mergeFrom(sb));
    EXPECT_DOUBLE_EQ(sa.value(), 7.5);
    EXPECT_DOUBLE_EQ(sb.value(), 4.5); // source untouched
}

TEST(StatsMerge, VectorAddsElementwise)
{
    StatGroup a("a"), b("b");
    Vector va(a, "v", "", 3), vb(b, "v", "", 3);
    va.add(0, 1.0);
    vb.add(0, 2.0);
    vb.add(2, 5.0);
    EXPECT_TRUE(va.mergeFrom(vb));
    EXPECT_DOUBLE_EQ(va.value(0), 3.0);
    EXPECT_DOUBLE_EQ(va.value(1), 0.0);
    EXPECT_DOUBLE_EQ(va.value(2), 5.0);
}

TEST(StatsMerge, ShapeMismatchesAreRejected)
{
    StatGroup a("a"), b("b");
    Scalar s(a, "s", "");
    Vector v3(a, "v3", "", 3), v4(b, "v4", "", 4);
    EXPECT_FALSE(s.mergeFrom(v3));       // kind mismatch
    EXPECT_FALSE(v3.mergeFrom(v4));      // length mismatch
    EXPECT_FALSE(v3.mergeFrom(s));       // kind mismatch
    EXPECT_DOUBLE_EQ(v3.total(), 0.0);   // rejected merge changes nothing
}

TEST(StatsMerge, GroupMergesRecursively)
{
    StatGroup a("run");
    StatGroup aSub(a, "bank");
    Scalar aHits(a, "hits", "");
    Vector aLat(aSub, "lat", "", 2);
    aHits += 10.0;
    aLat.add(0, 1.0);

    StatGroup b("run");
    StatGroup bSub(b, "bank");
    Scalar bHits(b, "hits", "");
    Vector bLat(bSub, "lat", "", 2);
    bHits += 5.0;
    bLat.add(1, 7.0);

    a.mergeFrom(b);
    EXPECT_DOUBLE_EQ(aHits.value(), 15.0);
    EXPECT_DOUBLE_EQ(aLat.value(0), 1.0);
    EXPECT_DOUBLE_EQ(aLat.value(1), 7.0);
}

TEST(StatsMerge, MergeIsAssociativeInFixedOrder)
{
    // Folding three congruent groups left-to-right equals folding the
    // last two first — the property the sweep join relies on.
    auto build = [](double v) {
        auto g = std::make_unique<StatGroup>("g");
        auto s = std::make_unique<Scalar>(*g, "s", "");
        s->set(v);
        return std::pair(std::move(g), std::move(s));
    };
    auto [g1, s1] = build(1.0);
    auto [g2, s2] = build(2.0);
    auto [g3, s3] = build(4.0);
    g1->mergeFrom(*g2);
    g1->mergeFrom(*g3);
    EXPECT_DOUBLE_EQ(s1->value(), 7.0);

    auto [h1, t1] = build(1.0);
    auto [h2, t2] = build(2.0);
    auto [h3, t3] = build(4.0);
    h2->mergeFrom(*h3);
    h1->mergeFrom(*h2);
    EXPECT_DOUBLE_EQ(t1->value(), 7.0);
}

TEST(StatsMergeDeath, MissingCounterpartPanics)
{
    StatGroup a("run");
    Scalar extra(a, "onlyInA", "");
    StatGroup b("run");
    // b lacks a counterpart for a's stat.
    EXPECT_DEATH(b.mergeFrom(a), "onlyInA");
}
