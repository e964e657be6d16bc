#include "quantize.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sim/cpuid.hh"
#include "sim/logging.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define BFREE_X86_QUANTIZE 1
#endif

namespace bfree::dnn {

namespace {

void
quantize_core_scalar(const SymQuant &sq, const float *src, std::size_t n,
                     std::int8_t *dst)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = static_cast<std::int8_t>(sq.q(src[i]));
}

#ifdef BFREE_X86_QUANTIZE

/**
 * The vector rounding core, shared by the variants via macro (callees
 * of a target("...") function do not inherit the attribute): given a
 * double vector x = v / scale, produce lround(x) lane-wise.
 * Truncate toward zero, take the exact fractional remainder f = x - y
 * (exact because y matches x's exponent), and add copysign(1, x)
 * where |f| >= 0.5. This is round-half-away-from-zero with no
 * double-rounding hazard: the tempting trunc(x + copysign(0.5, x))
 * misrounds values one ulp below a .5 boundary, because the add
 * itself rounds.
 */

__attribute__((target("sse4.2"))) void
quantize_core_sse42(const SymQuant &sq, const float *src, std::size_t n,
                    std::int8_t *dst)
{
    const __m128d vscale = _mm_set1_pd(sq.scale);
    const __m128d vhalf = _mm_set1_pd(0.5);
    const __m128d vone = _mm_set1_pd(1.0);
    const __m128d vsign = _mm_set1_pd(-0.0);
    const __m128d vmax = _mm_set1_pd(static_cast<double>(sq.limit));
    const __m128d vmin = _mm_set1_pd(-static_cast<double>(sq.limit));

#define BFREE_QROUND_PD_128(d, out)                                      \
    do {                                                                 \
        const __m128d x_ = _mm_div_pd(d, vscale);                        \
        const __m128d y_ = _mm_round_pd(                                 \
            x_, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);                 \
        const __m128d f_ = _mm_sub_pd(x_, y_);                           \
        const __m128d af_ = _mm_andnot_pd(vsign, f_);                    \
        const __m128d m_ = _mm_cmpge_pd(af_, vhalf);                     \
        const __m128d step_ = _mm_and_pd(                                \
            m_, _mm_or_pd(_mm_and_pd(x_, vsign), vone));                 \
        __m128d r_ = _mm_add_pd(y_, step_);                              \
        r_ = _mm_min_pd(_mm_max_pd(r_, vmin), vmax);                     \
        (out) = _mm_cvtpd_epi32(r_);                                     \
    } while (0)

    // Four lanes to four saturated bytes, packed into one int.
#define BFREE_QSTEP_128(v, word)                                         \
    do {                                                                 \
        __m128i r0, r1;                                                  \
        BFREE_QROUND_PD_128(_mm_cvtps_pd(v), r0);                        \
        BFREE_QROUND_PD_128(_mm_cvtps_pd(_mm_movehl_ps(v, v)), r1);      \
        const __m128i r32 = _mm_unpacklo_epi64(r0, r1);                  \
        const __m128i r16 = _mm_packs_epi32(r32, r32);                   \
        (word) = _mm_cvtsi128_si32(_mm_packs_epi16(r16, r16));           \
    } while (0)

    std::size_t i = 0;
    int word;
    for (; i + 4 <= n; i += 4) {
        const __m128 v = _mm_loadu_ps(src + i);
        BFREE_QSTEP_128(v, word);
        std::memcpy(dst + i, &word, 4);
    }
    // The ragged tail runs the same lane steps on a zero-padded copy
    // and stores only its own bytes.
    if (i < n) {
        float pad[4] = {};
        std::memcpy(pad, src + i, (n - i) * sizeof(float));
        const __m128 v = _mm_loadu_ps(pad);
        BFREE_QSTEP_128(v, word);
        std::memcpy(dst + i, &word, n - i);
    }
#undef BFREE_QSTEP_128
#undef BFREE_QROUND_PD_128
}

__attribute__((target("avx2"))) void
quantize_core_avx2(const SymQuant &sq, const float *src, std::size_t n,
                   std::int8_t *dst)
{
    const __m256d vscale = _mm256_set1_pd(sq.scale);
    const __m256d vhalf = _mm256_set1_pd(0.5);
    const __m256d vone = _mm256_set1_pd(1.0);
    const __m256d vsign = _mm256_set1_pd(-0.0);
    const __m256d vmax = _mm256_set1_pd(static_cast<double>(sq.limit));
    const __m256d vmin = _mm256_set1_pd(-static_cast<double>(sq.limit));

#define BFREE_QROUND_PD_256(d, out)                                      \
    do {                                                                 \
        const __m256d x_ = _mm256_div_pd(d, vscale);                     \
        const __m256d y_ = _mm256_round_pd(                              \
            x_, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);                 \
        const __m256d f_ = _mm256_sub_pd(x_, y_);                        \
        const __m256d af_ = _mm256_andnot_pd(vsign, f_);                 \
        const __m256d m_ = _mm256_cmp_pd(af_, vhalf, _CMP_GE_OQ);        \
        const __m256d step_ = _mm256_and_pd(                             \
            m_, _mm256_or_pd(_mm256_and_pd(x_, vsign), vone));           \
        __m256d r_ = _mm256_add_pd(y_, step_);                           \
        r_ = _mm256_min_pd(_mm256_max_pd(r_, vmin), vmax);               \
        (out) = _mm256_cvtpd_epi32(r_);                                  \
    } while (0)

    // Eight lanes to eight saturated bytes, packed into one int64.
#define BFREE_QSTEP_256(v, word)                                         \
    do {                                                                 \
        __m128i r0, r1;                                                  \
        BFREE_QROUND_PD_256(                                             \
            _mm256_cvtps_pd(_mm256_castps256_ps128(v)), r0);             \
        BFREE_QROUND_PD_256(                                             \
            _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)), r1);           \
        const __m128i r16 = _mm_packs_epi32(r0, r1);                     \
        (word) = _mm_cvtsi128_si64(_mm_packs_epi16(r16, r16));           \
    } while (0)

    std::size_t i = 0;
    long long word;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(src + i);
        BFREE_QSTEP_256(v, word);
        std::memcpy(dst + i, &word, 8);
    }
    // The ragged tail runs the same lane steps on a zero-padded copy
    // and stores only its own bytes.
    if (i < n) {
        float pad[8] = {};
        std::memcpy(pad, src + i, (n - i) * sizeof(float));
        const __m256 v = _mm256_loadu_ps(pad);
        BFREE_QSTEP_256(v, word);
        std::memcpy(dst + i, &word, n - i);
    }
#undef BFREE_QSTEP_256
#undef BFREE_QROUND_PD_256
}

// GCC 12 false positive through the _mm*_undefined_*() masked-fallback
// operands inside the AVX-512 intrinsic headers (GCC PR105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

/**
 * The AVX-512 core: x = v * r with r = RN32(1 / scale), on 16 float
 * lanes, kept wherever it provably rounds as the double quotient
 * RN64(v / scale) that q() rounds. Two float roundings (of 1 / scale,
 * then of the product) against one double rounding put them within
 * |x| 2^-23 (1 + 2^-22) of each other, so |x - RN64(v / scale)| <=
 * |x| 2^-22. A lane is in the guard band when
 *
 *     | |x| - floor(|x|) - 1/2 | <= 2^-20 |x| + 1e-30,
 *
 * when |x| >= 2^22 or when x is NaN. Outside it, below |x| = 2^8, x
 * and the quotient lie strictly between the same two half-integers, so
 * they round to the same integer; from 2^8 up both round past every
 * limit (<= 127) and clamp alike. x outside the band is never a tie,
 * so rounding it to nearest (even) is rounding it half away from zero.
 * A product that underflows sits near 0, far from the band, as does
 * the quotient. A vector with any lane in the band takes the double
 * divide step for all 16 lanes, and a scale whose float reciprocal is
 * not normal takes it throughout.
 */
__attribute__((target("avx512f,avx512bw,avx512vl"))) void
quantize_core_avx512(const SymQuant &sq, const float *src, std::size_t n,
                     std::int8_t *dst)
{
    const __m512d vscale = _mm512_set1_pd(sq.scale);
    const __m512d vhalf = _mm512_set1_pd(0.5);
    const __m512d vone = _mm512_set1_pd(1.0);
    const __m512i vsign = _mm512_set1_epi64(
        static_cast<long long>(0x8000000000000000ull));
    const __m512d vmax = _mm512_set1_pd(static_cast<double>(sq.limit));
    const __m512d vmin = _mm512_set1_pd(-static_cast<double>(sq.limit));

    const float recip = static_cast<float>(1.0 / sq.scale);
    const bool fast = std::isnormal(recip);
    const __m512 vrecip = _mm512_set1_ps(recip);
    const __m512 vhalfs = _mm512_set1_ps(0.5f);
    const __m512 vband = _mm512_set1_ps(0x1p-20f);
    const __m512 vtiny = _mm512_set1_ps(1e-30f);
    const __m512 vbig = _mm512_set1_ps(0x1p22f);
    const __m512i vabs = _mm512_set1_epi32(0x7FFFFFFF);
    const __m512i vlimit = _mm512_set1_epi32(sq.limit);
    const __m512i vnlimit = _mm512_set1_epi32(-sq.limit);

    // The pd logical ops are AVX512DQ, which the dispatch trio does
    // not guarantee; do sign manipulation in the integer domain (F).
#define BFREE_QROUND_PD_512(d, out)                                      \
    do {                                                                 \
        const __m512d x_ = _mm512_div_pd(d, vscale);                     \
        const __m512d y_ = _mm512_roundscale_pd(                         \
            x_, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);                 \
        const __m512d f_ = _mm512_sub_pd(x_, y_);                        \
        const __m512d af_ = _mm512_castsi512_pd(_mm512_andnot_si512(     \
            vsign, _mm512_castpd_si512(f_)));                            \
        const __mmask8 m_ =                                              \
            _mm512_cmp_pd_mask(af_, vhalf, _CMP_GE_OQ);                  \
        const __m512d one_ = _mm512_castsi512_pd(_mm512_or_si512(        \
            _mm512_and_si512(_mm512_castpd_si512(x_), vsign),            \
            _mm512_castpd_si512(vone)));                                 \
        __m512d r_ = _mm512_mask_add_pd(y_, m_, y_, one_);               \
        r_ = _mm512_min_pd(_mm512_max_pd(r_, vmin), vmax);               \
        (out) = _mm512_cvtpd_epi32(r_);                                  \
    } while (0)

    // Full vectors, then the ragged tail through the same lane steps
    // under a mask: the masked lanes load 0.0f and store nothing, so a
    // short span (one channel row of a small feature map) stays in
    // registers too.
#define BFREE_QSTEP_512(v, m)                                            \
    do {                                                                 \
        __m512i r32;                                                     \
        const __m512 x = _mm512_mul_ps(v, vrecip);                       \
        const __m512 ax = _mm512_castsi512_ps(                           \
            _mm512_and_si512(_mm512_castps_si512(x), vabs));             \
        const __m512 g = _mm512_sub_ps(                                  \
            ax, _mm512_roundscale_ps(                                    \
                    ax, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC));     \
        const __m512 d = _mm512_castsi512_ps(_mm512_and_si512(           \
            _mm512_castps_si512(_mm512_sub_ps(g, vhalfs)), vabs));       \
        const __mmask16 guard =                                          \
            _mm512_cmp_ps_mask(                                          \
                d, _mm512_add_ps(_mm512_mul_ps(ax, vband), vtiny),       \
                _CMP_LE_OQ)                                              \
            | _mm512_cmp_ps_mask(ax, vbig, _CMP_NLT_UQ);                 \
        if (fast && guard == 0) {                                        \
            r32 = _mm512_cvt_roundps_epi32(                              \
                x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);       \
            r32 = _mm512_min_epi32(_mm512_max_epi32(r32, vnlimit),       \
                                   vlimit);                              \
        } else {                                                         \
            __m256i r0, r1;                                              \
            BFREE_QROUND_PD_512(                                         \
                _mm512_cvtps_pd(_mm512_castps512_ps256(v)), r0);         \
            BFREE_QROUND_PD_512(                                         \
                _mm512_cvtps_pd(_mm256_castsi256_ps(                     \
                    _mm512_extracti64x4_epi64(_mm512_castps_si512(v),    \
                                              1))),                      \
                r1);                                                     \
            r32 = _mm512_inserti64x4(_mm512_zextsi256_si512(r0), r1, 1); \
        }                                                                \
        _mm_mask_storeu_epi8(dst + i, m, _mm512_cvtsepi32_epi8(r32));    \
    } while (0)

    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512 v = _mm512_loadu_ps(src + i);
        BFREE_QSTEP_512(v, __mmask16(0xFFFF));
    }
    if (i < n) {
        const auto m = static_cast<__mmask16>((1u << (n - i)) - 1);
        const __m512 v = _mm512_maskz_loadu_ps(m, src + i);
        BFREE_QSTEP_512(v, m);
    }
#undef BFREE_QSTEP_512
#undef BFREE_QROUND_PD_512
}

/**
 * The max-abs scan of choose_sym, four accumulators wide. max_ps
 * returns its second operand when either is NaN, so with the running
 * peak second a NaN lane is skipped exactly as std::max(peak, |x|)
 * skips it; the zero-masked tail lanes never beat a positive peak.
 */
__attribute__((target("avx512f,avx512bw,avx512vl"))) float
peak_abs_avx512(const float *data, std::size_t n, float peak)
{
    __m512 acc[4];
    for (__m512 &a : acc)
        a = _mm512_set1_ps(peak);
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64)
        for (int j = 0; j < 4; ++j)
            acc[j] = _mm512_max_ps(
                _mm512_abs_ps(_mm512_loadu_ps(data + i + 16 * j)),
                acc[j]);
    for (; i < n; i += 16) {
        const std::size_t rem = std::min<std::size_t>(16, n - i);
        const __mmask16 m = rem == 16
                                ? __mmask16(0xFFFF)
                                : static_cast<__mmask16>((1u << rem) - 1);
        acc[0] = _mm512_max_ps(
            _mm512_abs_ps(_mm512_maskz_loadu_ps(m, data + i)), acc[0]);
    }
    return _mm512_reduce_max_ps(_mm512_max_ps(
        _mm512_max_ps(acc[0], acc[1]), _mm512_max_ps(acc[2], acc[3])));
}

#pragma GCC diagnostic pop

#endif // BFREE_X86_QUANTIZE

float
peak_abs_scalar(const float *data, std::size_t n, float peak)
{
    for (std::size_t i = 0; i < n; ++i)
        peak = std::max(peak, std::abs(data[i]));
    return peak;
}

/** The signature every per-ISA quantize-span core shares. */
using QuantizeSpanFn = void (*)(const SymQuant &sq, const float *src,
                                std::size_t n, std::int8_t *dst);

/** The quantize-span core the active SIMD level resolves to. */
QuantizeSpanFn
quantize_span_fn()
{
#ifdef BFREE_X86_QUANTIZE
    const sim::SimdLevel level = sim::active_simd_level();
    if (sim::has_avx512(level))
        return &quantize_core_avx512;
    if (level == sim::SimdLevel::Avx2)
        return &quantize_core_avx2;
    if (level == sim::SimdLevel::Sse42)
        return &quantize_core_sse42;
#endif
    return &quantize_core_scalar;
}

} // namespace

float
peak_abs(const float *data, std::size_t n, float peak)
{
#ifdef BFREE_X86_QUANTIZE
    if (sim::has_avx512(sim::active_simd_level()))
        return peak_abs_avx512(data, n, peak);
#endif
    return peak_abs_scalar(data, n, peak);
}

void
quantize_span(const SymQuant &sq, const float *src, std::size_t n,
              std::int8_t *dst)
{
    if (sq.limit > 127)
        bfree_panic("quantize_span: limit ", sq.limit,
                    " exceeds the int8 domain");
    quantize_span_fn()(sq, src, n, dst);
}

SymQuant
sym_for_peak(float peak, unsigned bits)
{
    SymQuant s;
    s.limit = (1 << (bits - 1)) - 1;
    s.scale = peak / s.limit;
    return s;
}

SymQuant
choose_sym(const float *data, std::size_t n, unsigned bits)
{
    return sym_for_peak(peak_abs(data, n, 1e-9f), bits);
}

QuantizedWeights
freeze_weights(const float *w, std::size_t n, unsigned bits)
{
    QuantizedWeights out;
    out.scale = choose_sym(w, n, bits);
    out.bits = bits;
    if (bits <= 8) {
        // The vectorized span form of SymQuant::q, byte-identical.
        out.q8.resize(n);
        quantize_span(out.scale, w, n, out.q8.data());
    } else {
        out.q32.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            out.q32[i] = out.scale.q(w[i]);
    }
    return out;
}

QuantizedWeights
freeze_weights_padded(const float *w, std::size_t rows, std::size_t cols,
                      unsigned bits)
{
    if (bits > 8)
        return freeze_weights(w, rows * cols, bits);
    QuantizedWeights out;
    out.scale = choose_sym(w, rows * cols, bits);
    out.bits = bits;
    constexpr std::size_t line = 64;
    const std::size_t stride = padded_stride(cols);
    out.q8.assign(rows * stride + line - 1, 0);
    const std::size_t offset =
        (line - reinterpret_cast<std::uintptr_t>(out.q8.data()) % line)
        % line;
    out.pad = {rows, cols, stride, offset};
    for (std::size_t r = 0; r < rows; ++r)
        quantize_span(out.scale, w + r * cols, cols,
                      out.q8.data() + offset + r * stride);
    return out;
}

QuantizedWeights
freeze_conv_weights(const Layer &layer, const float *w, unsigned bits)
{
    const std::size_t c = layer.input.c;
    const std::size_t taps = std::size_t(layer.kernelH) * layer.kernelW;
    const std::size_t k = c * taps;
    const std::size_t n = std::size_t(layer.outChannels) * k;
    if (bits > 8)
        return freeze_weights(w, n, bits);
    QuantizedWeights out;
    out.scale = choose_sym(w, n, bits);
    out.bits = bits;
    out.q8.resize(n);
    // Each filter is quantized in storage order into one row of
    // scratch and scattered from there: channel ch's tap t, (ky, kx)
    // in row-major order, lands at t * inC + ch.
    std::vector<std::int8_t> row(k);
    for (std::size_t f = 0; f < layer.outChannels; ++f) {
        quantize_span(out.scale, w + f * k, k, row.data());
        std::int8_t *dst = out.q8.data() + f * k;
        for (std::size_t t = 0; t < taps; ++t)
            for (std::size_t ch = 0; ch < c; ++ch)
                dst[t * c + ch] = row[ch * taps + t];
    }
    return out;
}

QuantizedWeights
freeze_weights_transposed(const float *w, std::size_t k, std::size_t n,
                          unsigned bits)
{
    QuantizedWeights out;
    out.scale = choose_sym(w, k * n, bits);
    out.bits = bits;
    if (bits <= 8) {
        out.q8.resize(k * n);
        for (std::size_t j = 0; j < n; ++j)
            for (std::size_t p = 0; p < k; ++p)
                out.q8[j * k + p] =
                    static_cast<std::int8_t>(out.scale.q(w[p * n + j]));
    } else {
        out.q32.resize(k * n);
        for (std::size_t j = 0; j < n; ++j)
            for (std::size_t p = 0; p < k; ++p)
                out.q32[j * k + p] = out.scale.q(w[p * n + j]);
    }
    return out;
}

QuantizedTensor
quantize_tensor(const FloatTensor &input, unsigned bits)
{
    float lo = 0.0f;
    float hi = 0.0f;
    for (std::size_t i = 0; i < input.size(); ++i) {
        lo = std::min(lo, input[i]);
        hi = std::max(hi, input[i]);
    }

    QuantizedTensor out;
    out.qp = lut::choose_quant_params(lo, hi, bits);
    out.values = Int8Tensor(input.shape());
    for (std::size_t i = 0; i < input.size(); ++i)
        out.values[i] = static_cast<std::int8_t>(
            lut::quantize(input[i], out.qp));
    return out;
}

std::vector<std::int8_t>
quantize_weights(const std::vector<float> &w, lut::QuantParams &qp,
                 unsigned bits)
{
    float lo = 0.0f;
    float hi = 0.0f;
    for (float v : w) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    qp = lut::choose_quant_params(lo, hi, bits);

    std::vector<std::int8_t> out(w.size());
    for (std::size_t i = 0; i < w.size(); ++i)
        out[i] = static_cast<std::int8_t>(lut::quantize(w[i], qp));
    return out;
}

FloatTensor
dequantize_tensor(const QuantizedTensor &input)
{
    FloatTensor out(input.values.shape());
    for (std::size_t i = 0; i < input.values.size(); ++i)
        out[i] = static_cast<float>(
            lut::dequantize(input.values[i], input.qp));
    return out;
}

void
apply_mixed_precision(Network &net)
{
    // Identify first and last compute layers: these keep 8 bits.
    std::size_t first = net.layers().size();
    std::size_t last = 0;
    for (std::size_t i = 0; i < net.layers().size(); ++i) {
        if (net.layers()[i].isComputeLayer()) {
            first = std::min(first, i);
            last = i;
        }
    }
    for (std::size_t i = 0; i < net.layers().size(); ++i) {
        Layer &l = net.layers()[i];
        if (!l.isComputeLayer())
            continue;
        l.precisionBits = (i == first || i == last) ? 8 : 4;
    }
}

double
fraction_macs_at_4bit(const Network &net)
{
    std::uint64_t total = 0;
    std::uint64_t at4 = 0;
    for (const Layer &l : net.layers()) {
        total += l.macs();
        if (l.precisionBits == 4)
            at4 += l.macs();
    }
    return total == 0 ? 0.0
                      : static_cast<double>(at4)
                            / static_cast<double>(total);
}

} // namespace bfree::dnn
