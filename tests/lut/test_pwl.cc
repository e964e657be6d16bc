/**
 * @file
 * Piecewise-linear activation tables (paper Equation 2) and softmax.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>

#include "lut/pwl.hh"

using namespace bfree::lut;

TEST(PwlTable, InterpolatesEndpointsExactly)
{
    PwlTable t("square", [](double x) { return x * x; }, 0.0, 4.0, 4);
    // Segment endpoints are exact by construction.
    for (double x : {0.0, 1.0, 2.0, 3.0, 4.0})
        EXPECT_NEAR(t.evaluate(x), x * x, 1e-12);
}

TEST(PwlTable, ClampsOutOfRange)
{
    PwlTable t = make_sigmoid_table(32);
    EXPECT_NEAR(t.evaluate(100.0), 1.0, 1e-3);
    EXPECT_NEAR(t.evaluate(-100.0), 0.0, 1e-3);
}

/** Error decreases as segments increase, for all three functions. */
class PwlSegmentSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(PwlSegmentSweep, SigmoidErrorBound)
{
    const unsigned segments = GetParam();
    PwlTable t = make_sigmoid_table(segments);
    const double err = t.maxAbsError(
        [](double x) { return 1.0 / (1.0 + std::exp(-x)); });
    // Piecewise-linear error of a smooth function scales ~ width^2.
    const double width = 16.0 / segments;
    EXPECT_LT(err, 0.05 * width * width + 1e-6) << segments;
}

TEST_P(PwlSegmentSweep, TanhErrorBound)
{
    const unsigned segments = GetParam();
    PwlTable t = make_tanh_table(segments);
    const double err =
        t.maxAbsError([](double x) { return std::tanh(x); });
    const double width = 8.0 / segments;
    EXPECT_LT(err, 0.15 * width * width + 1e-6) << segments;
}

TEST_P(PwlSegmentSweep, ExpErrorBound)
{
    const unsigned segments = GetParam();
    PwlTable t = make_exp_table(segments);
    const double err =
        t.maxAbsError([](double x) { return std::exp(x); });
    const double width = 16.0 / segments;
    EXPECT_LT(err, 0.15 * width * width + 1e-6) << segments;
}

INSTANTIATE_TEST_SUITE_P(Segments, PwlSegmentSweep,
                         ::testing::Values(8u, 16u, 32u, 64u, 128u));

/**
 * Analytic segment bounds (paper Equation 2 tables): an endpoint-
 * interpolating PWL approximation of a C^2 function obeys
 *
 *     max |f(x) - pwl(x)|  <=  h^2 / 8 * max |f''|
 *
 * over each segment of width h. The second-derivative maxima are
 * exp: 1 on [-16,0]; sigmoid: 1/(6*sqrt(3)); tanh: 4/(3*sqrt(3)).
 */
class PwlAnalyticBound : public ::testing::TestWithParam<unsigned>
{};

TEST_P(PwlAnalyticBound, ExpWithinSegmentBound)
{
    const unsigned segments = GetParam();
    PwlTable t = make_exp_table(segments);
    const double h = 16.0 / segments;
    const double bound = h * h / 8.0 * 1.0; // max|exp''| = exp(0) = 1
    EXPECT_LE(t.maxAbsError([](double x) { return std::exp(x); }, 40000),
              bound + 1e-12)
        << segments;
}

TEST_P(PwlAnalyticBound, SigmoidWithinSegmentBound)
{
    const unsigned segments = GetParam();
    PwlTable t = make_sigmoid_table(segments);
    const double h = 16.0 / segments;
    const double bound = h * h / 8.0 / (6.0 * std::sqrt(3.0));
    EXPECT_LE(t.maxAbsError(
                  [](double x) { return 1.0 / (1.0 + std::exp(-x)); },
                  40000),
              bound + 1e-12)
        << segments;
}

TEST_P(PwlAnalyticBound, TanhWithinSegmentBound)
{
    const unsigned segments = GetParam();
    PwlTable t = make_tanh_table(segments);
    const double h = 8.0 / segments;
    const double bound = h * h / 8.0 * 4.0 / (3.0 * std::sqrt(3.0));
    EXPECT_LE(t.maxAbsError([](double x) { return std::tanh(x); }, 40000),
              bound + 1e-12)
        << segments;
}

INSTANTIATE_TEST_SUITE_P(Segments, PwlAnalyticBound,
                         ::testing::Values(8u, 16u, 32u, 64u, 128u, 256u));

/** Quadratic convergence: doubling segments cuts the error ~4x. */
TEST(PwlAnalyticBound, ErrorConvergesQuadratically)
{
    auto sigmoid = [](double x) { return 1.0 / (1.0 + std::exp(-x)); };
    double prev = make_sigmoid_table(8).maxAbsError(sigmoid, 40000);
    for (unsigned s : {16u, 32u, 64u, 128u}) {
        const double err = make_sigmoid_table(s).maxAbsError(sigmoid, 40000);
        EXPECT_LT(err, prev / 3.0) << s; // 4x in theory, 3x with slack
        prev = err;
    }
}

/** Design points vs 8-bit quantization noise: 32 segments keep the
 *  activation within one LSB of a [0,1] output, 64 within half an LSB —
 *  so the PWL table never dominates the quantization error budget. */
TEST(PwlAnalyticBound, DesignPointBeatsQuantizationNoise)
{
    auto sigmoid = [](double x) { return 1.0 / (1.0 + std::exp(-x)); };
    EXPECT_LT(make_sigmoid_table(32).maxAbsError(sigmoid, 40000),
              1.0 / 255.0);
    EXPECT_LT(make_sigmoid_table(64).maxAbsError(sigmoid, 40000),
              0.5 / 255.0);
}

TEST(PwlTable, MoreSegmentsNeverWorse)
{
    auto sigmoid = [](double x) { return 1.0 / (1.0 + std::exp(-x)); };
    double prev = 1e9;
    for (unsigned s : {4u, 8u, 16u, 32u, 64u}) {
        const double err = make_sigmoid_table(s).maxAbsError(sigmoid);
        EXPECT_LE(err, prev * 1.05);
        prev = err;
    }
}

TEST(PwlTable, CountsMicroOps)
{
    PwlTable t = make_tanh_table(16);
    MicroOpCounts counts;
    t.evaluate(0.3, &counts);
    EXPECT_EQ(counts.lutLookups, 1u);
    EXPECT_EQ(counts.cycles, 2u);
}

TEST(LutSoftmax, SumsToOne)
{
    PwlTable exp_t = make_exp_table(64);
    DivisionLut div(6);
    const std::vector<double> logits = {1.0, 2.0, 3.0, 4.0, -1.0};
    const std::vector<double> probs = lut_softmax(logits, exp_t, div);
    const double sum =
        std::accumulate(probs.begin(), probs.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 0.05);
    for (double p : probs)
        EXPECT_GE(p, 0.0);
}

TEST(LutSoftmax, MatchesReferenceSoftmax)
{
    PwlTable exp_t = make_exp_table(128);
    DivisionLut div(6);
    const std::vector<double> logits = {0.3, -1.2, 2.5, 0.0, 1.1};
    const std::vector<double> probs = lut_softmax(logits, exp_t, div);

    // Reference.
    double max_v = *std::max_element(logits.begin(), logits.end());
    std::vector<double> expected(logits.size());
    double denom = 0.0;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        expected[i] = std::exp(logits[i] - max_v);
        denom += expected[i];
    }
    for (std::size_t i = 0; i < logits.size(); ++i)
        EXPECT_NEAR(probs[i], expected[i] / denom, 0.02) << i;
}

TEST(LutSoftmax, PreservesArgmax)
{
    PwlTable exp_t = make_exp_table(32);
    DivisionLut div(4);
    const std::vector<double> logits = {0.1, 3.0, -2.0, 1.5};
    const std::vector<double> probs = lut_softmax(logits, exp_t, div);
    const auto argmax =
        std::max_element(probs.begin(), probs.end()) - probs.begin();
    EXPECT_EQ(argmax, 1);
}

TEST(LutSoftmax, EmptyInput)
{
    PwlTable exp_t = make_exp_table(8);
    DivisionLut div(4);
    EXPECT_TRUE(lut_softmax({}, exp_t, div).empty());
}

TEST(LutSoftmax, LargeNegativeLogitsUnderflowGracefully)
{
    PwlTable exp_t = make_exp_table(32);
    DivisionLut div(4);
    const std::vector<double> logits = {0.0, -50.0};
    const std::vector<double> probs = lut_softmax(logits, exp_t, div);
    EXPECT_GT(probs[0], 0.9);
    EXPECT_LT(probs[1], 0.1);
}

TEST(PwlTable, NanInIsNanOutWithTheSameBooking)
{
    // NaN must not reach the segment index: the cast of NaN to an
    // integer is undefined. It comes back unchanged, booked like any
    // other evaluation (this test also runs under
    // -fsanitize=float-cast-overflow).
    const double nans[] = {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::signaling_NaN()};
    for (const PwlTable &t :
         {make_sigmoid_table(), make_tanh_table(), make_exp_table()}) {
        MicroOpCounts nanCounts, numCounts;
        for (const double x : nans) {
            const double y = t.evaluate(x, &nanCounts);
            EXPECT_TRUE(std::isnan(y)) << t.name();
            EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0) << t.name();
            (void)t.evaluate(0.5, &numCounts);
        }
        EXPECT_EQ(nanCounts.lutLookups, numCounts.lutLookups);
        EXPECT_EQ(nanCounts.romLookups, numCounts.romLookups);
        EXPECT_EQ(nanCounts.shifts, numCounts.shifts);
        EXPECT_EQ(nanCounts.adds, numCounts.adds);
        EXPECT_EQ(nanCounts.cycles, numCounts.cycles);
        EXPECT_EQ(nanCounts.cycles, 2 * std::size(nans));
    }
}
