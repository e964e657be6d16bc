/**
 * @file
 * Piecewise-linear function tables (Section III-C3).
 *
 * Exponent, sigmoid and tanh are evaluated as
 *
 *     f_s(x) = alpha_s * x + (y_l^s - alpha_s * x_l^s),  x in [x_l^s, x_r^s]
 *
 * over S uniform segments (paper Equation 2). Each segment stores the
 * slope alpha_s and intercept beta_s = y_l - alpha * x_l, two values per
 * segment in the sub-array LUT rows. Softmax composes the exp table
 * with the systolic sum reduction and the division LUT.
 */

#ifndef BFREE_LUT_PWL_HH
#define BFREE_LUT_PWL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "division.hh"
#include "operand_analyzer.hh"

namespace bfree::lut {

/** One linear segment: f(x) ~= alpha * x + beta. */
struct PwlSegment
{
    double alpha = 0.0;
    double beta = 0.0;
};

/**
 * A piecewise-linear approximation of a scalar function over a closed
 * interval, with uniform segmentation so segment selection is a shift.
 */
class PwlTable
{
  public:
    /**
     * Build an approximation of @p fn over [@p xmin, @p xmax] with
     * @p segments pieces interpolating the segment endpoints.
     */
    PwlTable(std::string name, std::function<double(double)> fn,
             double xmin, double xmax, unsigned segments);

    const std::string &name() const { return _name; }
    double xmin() const { return _xmin; }
    double xmax() const { return _xmax; }
    unsigned segments() const { return static_cast<unsigned>(segs.size()); }

    /** Segment width, (xmax - xmin) / segments. */
    double width() const { return _width; }

    /**
     * What one evaluation books: one alpha/beta pair fetch, one ROM
     * multiply, one add and two cycles, whatever the input.
     */
    static MicroOpCounts evalCounts();

    /**
     * Evaluate the approximation; inputs outside the range clamp to the
     * boundary segments (saturating behaviour, correct for sigmoid/tanh
     * tails and exp underflow). A NaN input is returned unchanged. The
     * steps, in this order and each rounded on its own, are the
     * specification every vector form reproduces bit for bit: clamp,
     * subtract xmin, divide by width(), truncate to the segment index,
     * cap it at the last segment, then alpha * x and + beta (two
     * operations, never a fused multiply-add).
     */
    double evaluate(double x, MicroOpCounts *counts = nullptr) const;

    /** Largest absolute error against @p fn over @p samples points. */
    double maxAbsError(const std::function<double(double)> &fn,
                       unsigned samples = 10000) const;

    /** Segment parameters for LUT-image serialization. */
    const std::vector<PwlSegment> &raw() const { return segs; }

  private:
    std::string _name;
    double _xmin;
    double _xmax;
    double _width;
    std::vector<PwlSegment> segs;
};

/** exp(x) over [-16, 0]: the shifted-input form softmax needs. */
PwlTable make_exp_table(unsigned segments = 32);

/** Logistic sigmoid over [-8, 8]. */
PwlTable make_sigmoid_table(unsigned segments = 32);

/** tanh over [-4, 4]. */
PwlTable make_tanh_table(unsigned segments = 32);

/**
 * Numerically stable softmax over @p logits computed entirely with the
 * LUT primitives: max-shift, exp PWL table, accumulation, LUT division.
 */
std::vector<double> lut_softmax(const std::vector<double> &logits,
                                const PwlTable &exp_table,
                                const DivisionLut &div,
                                MicroOpCounts *counts = nullptr);

/**
 * Allocation-free lut_softmax: reads @p n logits from @p logits and
 * writes @p n probabilities to @p out (in-place operation, @p out ==
 * @p logits, is allowed). Identical arithmetic to the vector overload —
 * the steady-state inference path uses this form with arena-backed
 * buffers.
 */
void lut_softmax_into(const double *logits, std::size_t n, double *out,
                      const PwlTable &exp_table, const DivisionLut &div,
                      MicroOpCounts *counts = nullptr);

} // namespace bfree::lut

#endif // BFREE_LUT_PWL_HH
