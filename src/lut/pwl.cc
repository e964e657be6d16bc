#include "pwl.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace bfree::lut {

PwlTable::PwlTable(std::string name, std::function<double(double)> fn,
                   double xmin, double xmax, unsigned segments)
    : _name(std::move(name)), _xmin(xmin), _xmax(xmax)
{
    if (segments == 0 || xmax <= xmin)
        bfree_fatal("PWL table '", _name,
                    "' needs segments > 0 and xmax > xmin");

    _width = (xmax - xmin) / segments;
    segs.resize(segments);
    for (unsigned s = 0; s < segments; ++s) {
        const double xl = xmin + s * _width;
        const double xr = xl + _width;
        const double yl = fn(xl);
        const double yr = fn(xr);
        segs[s].alpha = (yr - yl) / _width;
        segs[s].beta = yl - segs[s].alpha * xl;
    }
}

MicroOpCounts
PwlTable::evalCounts()
{
    MicroOpCounts c;
    c.lutLookups = 1; // alpha/beta pair fetch
    c.romLookups = 1; // alpha * x on the multiply datapath
    c.adds = 1;       // + beta
    c.cycles = 2;
    return c;
}

double
PwlTable::evaluate(double x, MicroOpCounts *counts) const
{
    if (counts != nullptr)
        *counts += evalCounts();
    // std::clamp passes NaN through, and the index cast of NaN is
    // undefined: NaN in is NaN out, booked like any other input.
    if (std::isnan(x))
        return x;
    const double clamped = std::clamp(x, _xmin, _xmax);
    auto index = static_cast<std::size_t>((clamped - _xmin) / _width);
    index = std::min(index, segs.size() - 1);
    const PwlSegment &seg = segs[index];
    // This file compiles with -ffp-contract=off: the product and the
    // sum round separately here, in every build (src/lut/CMakeLists).
    return seg.alpha * clamped + seg.beta;
}

double
PwlTable::maxAbsError(const std::function<double(double)> &fn,
                      unsigned samples) const
{
    double worst = 0.0;
    for (unsigned i = 0; i <= samples; ++i) {
        const double x =
            _xmin + (_xmax - _xmin) * static_cast<double>(i) / samples;
        worst = std::max(worst, std::abs(fn(x) - evaluate(x)));
    }
    return worst;
}

PwlTable
make_exp_table(unsigned segments)
{
    return PwlTable("exp", [](double x) { return std::exp(x); }, -16.0,
                    0.0, segments);
}

PwlTable
make_sigmoid_table(unsigned segments)
{
    return PwlTable(
        "sigmoid", [](double x) { return 1.0 / (1.0 + std::exp(-x)); },
        -8.0, 8.0, segments);
}

PwlTable
make_tanh_table(unsigned segments)
{
    return PwlTable("tanh", [](double x) { return std::tanh(x); }, -4.0,
                    4.0, segments);
}

std::vector<double>
lut_softmax(const std::vector<double> &logits, const PwlTable &exp_table,
            const DivisionLut &div, MicroOpCounts *counts)
{
    std::vector<double> out(logits.size());
    lut_softmax_into(logits.data(), logits.size(), out.data(), exp_table,
                     div, counts);
    return out;
}

void
lut_softmax_into(const double *logits, std::size_t n, double *out,
                 const PwlTable &exp_table, const DivisionLut &div,
                 MicroOpCounts *counts)
{
    if (n == 0)
        return;

    const double max_logit = *std::max_element(logits, logits + n);

    // exp values land directly in out; the division then rewrites each
    // slot, so the routine needs no scratch of its own (and @p out may
    // alias @p logits: each slot is read before it is written).
    double denom = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = exp_table.evaluate(logits[i] - max_logit, counts);
        denom += out[i];
        if (counts != nullptr)
            counts->adds += 1; // running denominator accumulation
    }
    for (std::size_t i = 0; i < n; ++i)
        out[i] = div.divide(out[i], denom, counts);
}

} // namespace bfree::lut
