#include "stats.hh"

#include <algorithm>
#include <iomanip>

#include "logging.hh"

namespace bfree::sim {

StatBase::StatBase(StatGroup &parent, std::string name,
                   std::string description)
    : _parent(&parent), _name(std::move(name)),
      _description(std::move(description))
{
    parent.registerStat(this);
}

StatBase::~StatBase()
{
    _parent->unregisterStat(this);
}

std::string
StatBase::fullName() const
{
    std::string prefix = _parent->fullName();
    return prefix.empty() ? _name : prefix + "." + _name;
}

namespace {

void
emit_line(std::ostream &os, const std::string &name, double value,
          const std::string &description)
{
    os << std::left << std::setw(48) << name << " " << std::right
       << std::setw(16) << value;
    if (!description.empty())
        os << "  # " << description;
    os << "\n";
}

} // namespace

void
Scalar::dump(std::ostream &os) const
{
    emit_line(os, fullName(), total, description());
}

void
Vector::add(std::size_t index, double v)
{
    if (index >= values.size())
        bfree_panic("vector stat '", fullName(), "' index ", index,
                    " out of range (size ", values.size(), ")");
    values[index] += v;
}

double
Vector::value(std::size_t index) const
{
    if (index >= values.size())
        bfree_panic("vector stat '", fullName(), "' index ", index,
                    " out of range (size ", values.size(), ")");
    return values[index];
}

double
Vector::total() const
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum;
}

void
Vector::dump(std::ostream &os) const
{
    for (std::size_t i = 0; i < values.size(); ++i) {
        emit_line(os, fullName() + "[" + std::to_string(i) + "]", values[i],
                  description());
    }
    emit_line(os, fullName() + ".total", total(), description());
}

StatGroup::StatGroup(std::string name) : _name(std::move(name)) {}

StatGroup::StatGroup(StatGroup &parent, std::string name)
    : _parent(&parent), _name(std::move(name))
{
    parent.registerChild(this);
}

StatGroup::~StatGroup()
{
    if (_parent != nullptr)
        _parent->unregisterChild(this);
}

void
StatGroup::unregisterChild(StatGroup *child)
{
    std::erase(children, child);
}

void
StatGroup::unregisterStat(StatBase *stat)
{
    std::erase(stats, stat);
}

std::string
StatGroup::fullName() const
{
    if (_parent == nullptr)
        return _name;
    std::string prefix = _parent->fullName();
    return prefix.empty() ? _name : prefix + "." + _name;
}

void
StatGroup::dumpAll(std::ostream &os) const
{
    std::vector<const StatBase *> sorted(stats.begin(), stats.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const StatBase *a, const StatBase *b) {
                  return a->name() < b->name();
              });
    for (const StatBase *stat : sorted)
        stat->dump(os);

    std::vector<const StatGroup *> sorted_children(children.begin(),
                                                   children.end());
    std::sort(sorted_children.begin(), sorted_children.end(),
              [](const StatGroup *a, const StatGroup *b) {
                  return a->name() < b->name();
              });
    for (const StatGroup *child : sorted_children)
        child->dumpAll(os);
}

void
StatGroup::resetAll()
{
    for (StatBase *stat : stats)
        stat->reset();
    for (StatGroup *child : children)
        child->resetAll();
}

StatBase *
StatGroup::findStat(const std::string &name) const
{
    for (StatBase *stat : stats) {
        if (stat->name() == name)
            return stat;
    }
    return nullptr;
}

StatGroup *
StatGroup::findChild(const std::string &name) const
{
    for (StatGroup *child : children) {
        if (child->name() == name)
            return child;
    }
    return nullptr;
}

} // namespace bfree::sim
