#include "conv_front.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "bce/simd_kernels.hh"

namespace bfree::core {

namespace {

constexpr std::size_t kFeatures = bce::simd::feature_count;

/** Rows one class_feature_sums call of the feature pass covers at
 *  most: bounds the edge-column tile it copies into scratch. */
constexpr std::size_t kBandRows = 32;

/**
 * The tap-feature geometry of one conv. A plane row is G = cols / sW
 * column groups of sW * C bytes. The accumulator holds, per kernel
 * row, the phase sums over whole rows (the class_feature_sums layout
 * of a k = sW * C tile) and then the edge-column sums (the layout of a
 * k = E * C tile): edge e < left is plane column e, the rest are the
 * columns from oW * sW to the end of the row.
 */
struct TapGeometry
{
    std::size_t c, kh, kw, sh, sw, oh, ow, groups;
    std::size_t left;  ///< qmax * sW columns, qmax = (kW - 1) / sW.
    std::size_t right; ///< cols - oW * sW columns.
    std::size_t edges; ///< left + right.

    explicit TapGeometry(const dnn::Layer &l)
        : c(l.input.c), kh(l.kernelH), kw(l.kernelW), sh(l.strideH),
          sw(l.strideW), oh(l.outputShape().h), ow(l.outputShape().w),
          groups(hwc_plane(l).cols / sw), left((kw - 1) / sw * sw),
          right(groups * sw - ow * sw), edges(left + right)
    {}

    std::size_t phaseWords() const { return kFeatures * sw * c; }
    std::size_t edgeWords() const { return kFeatures * edges * c; }
    std::size_t blockWords() const { return phaseWords() + edgeWords(); }
    /** Words of one class_feature_sums result, range word included. */
    std::size_t sumsWords() const
    {
        return std::max(phaseWords(), edgeWords()) + 1;
    }

    /** Kernel rows [first, last] step sH that read plane row r: ky =
     *  r - oh' sH with oh' in [0, oH) and ky in [0, kH). Empty when
     *  first > last. */
    std::pair<std::size_t, std::size_t>
    readers(std::size_t r) const
    {
        const std::size_t top = (oh - 1) * sh; // top row of the last output
        const std::size_t lo = r > top ? r - top : 0;
        return {lo + (r - lo) % sh, std::min(r, kh - 1)};
    }
};

/** dst[i] += src[i], i in [0, n), mod 2^32. Sixteen words per step
 *  over unaliased arrays, so the step compiles to vector adds. */
void
add_words(std::uint32_t *__restrict dst, const std::uint32_t *__restrict src,
          std::size_t n)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        for (std::size_t j = 0; j < 16; ++j)
            dst[i + j] += src[i + j];
    for (; i < n; ++i)
        dst[i] += src[i];
}

/** dst[i] -= src[i], i in [0, n), mod 2^32, as add_words steps. */
void
sub_words(std::uint32_t *__restrict dst, const std::uint32_t *__restrict src,
          std::size_t n)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        for (std::size_t j = 0; j < 16; ++j)
            dst[i + j] -= src[i + j];
    for (; i < n; ++i)
        dst[i] -= src[i];
}

} // namespace

HwcPlane
hwc_plane(const dnn::Layer &layer)
{
    const dnn::FeatureShape o = layer.outputShape();
    const std::size_t sw = layer.strideW;
    HwcPlane p;
    p.rows = std::size_t(layer.input.h) + 2 * layer.padH;
    p.cols = (std::max(std::size_t(layer.input.w) + 2 * layer.padW,
                       std::size_t(o.w) * sw)
              + sw - 1)
             / sw * sw;
    p.channels = layer.input.c;
    return p;
}

void
stage_hwc_rows(const dnn::Layer &layer, const dnn::SymQuant &q,
               const float *in, std::size_t r0, std::size_t r1,
               std::int8_t *plane)
{
    const HwcPlane p = hwc_plane(layer);
    const std::size_t c = p.channels;
    const std::size_t inH = layer.input.h;
    const std::size_t inW = layer.input.w;
    const std::size_t padH = layer.padH;
    const std::size_t lead = std::size_t(layer.padW) * c;
    const std::size_t body = inW * c;
    for (std::size_t r = r0; r < r1; ++r) {
        std::int8_t *row = plane + r * p.rowBytes();
        if (r < padH || r >= padH + inH) {
            std::memset(row, 0, p.rowBytes());
            continue;
        }
        std::memset(row, 0, lead);
        std::memset(row + lead + body, 0, p.rowBytes() - lead - body);
        dnn::quantize_span(q, in + (r - padH) * body, body, row + lead);
    }
}

bce::simd::ConvRows
conv_rows(const dnn::Layer &layer)
{
    bce::simd::ConvRows g;
    g.channels = layer.input.c;
    g.rowBytes = hwc_plane(layer).rowBytes();
    g.kernelH = layer.kernelH;
    g.kernelW = layer.kernelW;
    g.strideH = layer.strideH;
    g.strideW = layer.strideW;
    g.outW = layer.outputShape().w;
    g.filters = layer.outChannels;
    return g;
}

std::size_t
plane_buffer_bytes(const dnn::Layer &layer)
{
    const HwcPlane p = hwc_plane(layer);
    const std::size_t oh = layer.outputShape().h;
    if (oh == 0)
        return p.bytes();
    const std::size_t reach = (oh - 1) * layer.strideH * p.rowBytes()
                              + bce::simd::conv_row_reach(conv_rows(layer));
    return std::max(p.bytes(), reach);
}

std::size_t
patch_row_bytes(const dnn::Layer &layer)
{
    return std::size_t(layer.outputShape().w) * conv_rows(layer).k();
}

std::size_t
tap_feature_words(const dnn::Layer &layer)
{
    const TapGeometry g(layer);
    return g.kh * g.blockWords();
}

std::size_t
tap_feature_scratch_words(const dnn::Layer &layer)
{
    const TapGeometry g(layer);
    // The class_feature_sums result, then the edge-column tile of one
    // band of rows.
    return g.sumsWords() + (kBandRows * g.edges * g.c + 3) / 4;
}

void
classify_hwc_rows(const dnn::Layer &layer, const std::int8_t *plane,
                  std::size_t r0, std::size_t r1, std::uint32_t *acc,
                  std::uint32_t *scratch)
{
    const TapGeometry g(layer);
    const std::size_t rowBytes = g.groups * g.sw * g.c;
    std::uint32_t *sums = scratch;
    auto *edgeTile = reinterpret_cast<std::int8_t *>(scratch + g.sumsWords());
    // Bands of consecutive rows read by the same kernel rows (with
    // stride 1, every interior row): one phase call over the band's
    // whole rows, one over its edge columns gathered into a tile.
    for (std::size_t a = r0; a < r1;) {
        const auto [ky0, ky1] = g.readers(a);
        std::size_t b = a + 1;
        while (b < r1 && b - a < kBandRows && g.readers(b).first == ky0
               && g.readers(b).second == ky1)
            ++b;
        if (ky0 <= ky1) {
            bce::simd::class_feature_sums(plane + a * rowBytes,
                                          (b - a) * g.groups, g.sw * g.c,
                                          sums);
            for (std::size_t ky = ky0; ky <= ky1; ky += g.sh)
                add_words(acc + ky * g.blockWords(), sums, g.phaseWords());
            if (g.edges > 0) {
                const std::size_t tileRow = g.edges * g.c;
                for (std::size_t r = a; r < b; ++r) {
                    const std::int8_t *row = plane + r * rowBytes;
                    std::int8_t *t = edgeTile + (r - a) * tileRow;
                    std::memcpy(t, row, g.left * g.c);
                    std::memcpy(t + g.left * g.c, row + g.ow * g.sw * g.c,
                                g.right * g.c);
                }
                bce::simd::class_feature_sums(edgeTile, b - a, tileRow,
                                              sums);
                for (std::size_t ky = ky0; ky <= ky1; ky += g.sh)
                    add_words(acc + ky * g.blockWords() + g.phaseWords(),
                              sums, g.edgeWords());
            }
        }
        a = b;
    }
}

void
sum_tap_features(std::uint32_t *acc, const std::uint32_t *other,
                 std::size_t w0, std::size_t w1)
{
    add_words(acc + w0, other + w0, w1 - w0);
}

void
tap_features(const dnn::Layer &layer, const std::uint32_t *acc,
             std::uint32_t *fx)
{
    const TapGeometry g(layer);
    const std::size_t k = g.kh * g.kw * g.c;
    const std::size_t edgeRow = g.edges * g.c;
    for (std::size_t ky = 0; ky < g.kh; ++ky) {
        const std::uint32_t *phase = acc + ky * g.blockWords();
        const std::uint32_t *edge = phase + g.phaseWords();
        for (std::size_t kx = 0; kx < g.kw; ++kx) {
            const std::size_t phi = kx % g.sw;
            const std::size_t q = kx / g.sw;
            const std::size_t tap = (ky * g.kw + kx) * g.c;
            for (std::size_t f = 0; f < kFeatures; ++f) {
                std::uint32_t *out = fx + f * k + tap;
                std::copy_n(phase + f * g.sw * g.c + phi * g.c, g.c, out);
                // Take off the groups the tap does not read: the q
                // before its first and those after its last, q + oW - 1.
                const auto skip = [&](std::size_t e) {
                    sub_words(out, edge + f * edgeRow + e * g.c, g.c);
                };
                for (std::size_t j = 0; j < q; ++j)
                    skip(phi + j * g.sw);
                for (std::size_t j = q + g.ow; j < g.groups; ++j)
                    skip(g.left + phi + j * g.sw - g.ow * g.sw);
            }
        }
    }
}

} // namespace bfree::core
