/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Statistics live in StatGroups (which can nest) and are dumped as a flat
 * "name value # description" listing, mirroring gem5's stats.txt format.
 * Supported kinds: Scalar (counter/accumulator) and Vector (indexed
 * counters).
 */

#ifndef BFREE_SIM_STATS_HH
#define BFREE_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace bfree::sim {

class StatGroup;

/** Base class for all statistics. */
class StatBase
{
  public:
    StatBase(StatGroup &parent, std::string name, std::string description);
    virtual ~StatBase();

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    /** Leaf name within the owning group. */
    const std::string &name() const { return _name; }

    /** One-line description printed with the value. */
    const std::string &description() const { return _description; }

    /** Fully qualified dotted name. */
    std::string fullName() const;

    /** Write "name value # description" lines to @p os. */
    virtual void dump(std::ostream &os) const = 0;

    /** Reset to the initial value. */
    virtual void reset() = 0;

  protected:
    const StatGroup &parent() const { return *_parent; }

  private:
    StatGroup *_parent;
    std::string _name;
    std::string _description;
};

/** A double-precision accumulator. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &
    operator+=(double v)
    {
        total += v;
        return *this;
    }

    Scalar &
    operator++()
    {
        total += 1.0;
        return *this;
    }

    void set(double v) { total = v; }
    double value() const { return total; }

    void dump(std::ostream &os) const override;
    void reset() override { total = 0.0; }

  private:
    double total = 0.0;
};

/** A fixed-size vector of accumulators. */
class Vector : public StatBase
{
  public:
    Vector(StatGroup &parent, std::string name, std::string description,
           std::size_t size)
        : StatBase(parent, std::move(name), std::move(description)),
          values(size, 0.0)
    {}

    void add(std::size_t index, double v);
    double value(std::size_t index) const;
    std::size_t size() const { return values.size(); }
    double total() const;

    void dump(std::ostream &os) const override;
    void reset() override { values.assign(values.size(), 0.0); }

  private:
    std::vector<double> values;
};

/**
 * A named collection of statistics and child groups.
 */
class StatGroup
{
  public:
    /** Construct a root group. */
    explicit StatGroup(std::string name);

    /** Construct a child group nested under @p parent. */
    StatGroup(StatGroup &parent, std::string name);

    virtual ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Leaf name of this group. */
    const std::string &name() const { return _name; }

    /** Fully qualified dotted name (empty for an unnamed root). */
    std::string fullName() const;

    /** Dump all stats in this group and its children, sorted by name. */
    void dumpAll(std::ostream &os) const;

    /** Reset all stats in this group and its children. */
    void resetAll();

    /** Stat with leaf name @p name, or nullptr. */
    StatBase *findStat(const std::string &name) const;

    /** Child group with leaf name @p name, or nullptr. */
    StatGroup *findChild(const std::string &name) const;

  private:
    friend class StatBase;

    void registerStat(StatBase *stat) { stats.push_back(stat); }
    void unregisterStat(StatBase *stat);
    void registerChild(StatGroup *child) { children.push_back(child); }
    void unregisterChild(StatGroup *child);

    StatGroup *_parent = nullptr;
    std::string _name;
    std::vector<StatBase *> stats;
    std::vector<StatGroup *> children;
};

} // namespace bfree::sim

#endif // BFREE_SIM_STATS_HH
