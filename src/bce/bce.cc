#include "bce.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

#include "lut/lut_image.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "simd_kernels.hh"

namespace bfree::bce {

Bce::Bce(mem::Subarray &subarray, const tech::TechParams &tech,
         mem::EnergyAccount &energy)
    : sa(&subarray), tech(tech), energy(&energy)
{}

void
Bce::chargeCycles(std::uint64_t n)
{
    stats_.cycles += n;
    stats_.cyclesByMode[static_cast<std::size_t>(_mode)] += n;
}

void
Bce::noteConvLutReads(std::uint64_t n)
{
    if (n == 0)
        return;
    // lut_en decides the cost category a read will flush into.
    if (sa->pimModeEnabled())
        stats_.lutReadsPim += n;
    else
        stats_.lutReadsCache += n;
    sa->noteLutReads(n);
}

void
Bce::flushEnergy()
{
    mem::BceEnergyTallies now;
    now.romLookups = stats_.counts.romLookups;
    now.lutReadsPim = stats_.lutReadsPim;
    now.lutReadsCache = stats_.lutReadsCache;
    now.specialLutEvents = stats_.specialLutEvents;
    now.cyclesByMode = stats_.cyclesByMode;

    mem::BceEnergyTallies delta;
    delta.romLookups = now.romLookups - flushed_.romLookups;
    delta.lutReadsPim = now.lutReadsPim - flushed_.lutReadsPim;
    delta.lutReadsCache = now.lutReadsCache - flushed_.lutReadsCache;
    delta.specialLutEvents =
        now.specialLutEvents - flushed_.specialLutEvents;
    for (std::size_t m = 0; m < now.cyclesByMode.size(); ++m)
        delta.cyclesByMode[m] =
            now.cyclesByMode[m] - flushed_.cyclesByMode[m];

    mem::MicroOpEnergyModel(tech).deposit(delta, *energy);
    flushed_ = now;
}

void
Bce::setMode(BceMode mode)
{
    if (mode == _mode)
        return;
    _mode = mode;
    chargeCycles(1);
}

void
Bce::loadMultLutImage()
{
    if (multLutLoaded)
        return;
    const lut::LutImage image = lut::serialize(lut::MultLut{});
    sa->loadLut(image.bytes);
    multLutLoaded = true;
}

void
Bce::loadConfig(const ConfigBlock &new_cb)
{
    cb = new_cb;
    ++stats_.configLoads;
    chargeCycles(1);
}

std::int64_t
Bce::lutMultiply4(unsigned a, unsigned b, lut::MicroOpCounts &counts)
{
    if (!multLutLoaded)
        bfree_panic("conv-mode multiply before the LUT image was loaded");

    using lut::OperandClass;
    const OperandClass ca = lut::classify_operand(a);
    const OperandClass cb_class = lut::classify_operand(b);
    if (ca == OperandClass::Zero || cb_class == OperandClass::Zero)
        return 0;

    const lut::OddDecomposition da = lut::decompose_odd(a);
    const lut::OddDecomposition db = lut::decompose_odd(b);
    const unsigned total_shift = da.shift + db.shift;

    std::int64_t product = 0;
    if (da.odd == 1 && db.odd == 1) {
        product = std::int64_t{1} << total_shift;
        if (total_shift > 0)
            ++counts.shifts;
    } else if (da.odd == 1 || db.odd == 1) {
        const unsigned odd = da.odd == 1 ? db.odd : da.odd;
        product = std::int64_t{odd} << total_shift;
        if (total_shift > 0)
            ++counts.shifts;
    } else {
        const std::size_t offset =
            lut::MultLut::operandIndex(da.odd) * lut::num_odd_operands
            + lut::MultLut::operandIndex(db.odd);
        const std::uint8_t value = sa->lutPeek(offset);
        ++counts.lutLookups;
        product = std::int64_t{value} << total_shift;
        if (total_shift > 0)
            ++counts.shifts;
    }
    return product;
}

std::int64_t
Bce::multiplyViaSubarrayLut(std::int32_t a, std::int32_t b, unsigned bits,
                            lut::MicroOpCounts &counts)
{
    const unsigned nibbles = bits / 4;
    const bool negative = (a < 0) != (b < 0);
    const auto ua = static_cast<std::uint32_t>(std::abs(a));
    const auto ub = static_cast<std::uint32_t>(std::abs(b));

    std::int64_t product = 0;
    bool first = true;
    for (unsigned i = 0; i < nibbles; ++i) {
        const unsigned na = (ua >> (4 * i)) & 0xF;
        if (na == 0)
            continue;
        for (unsigned j = 0; j < nibbles; ++j) {
            const unsigned nb = (ub >> (4 * j)) & 0xF;
            if (nb == 0)
                continue;
            product += lutMultiply4(na, nb, counts) << (4 * (i + j));
            if (!first)
                ++counts.adds;
            first = false;
        }
    }
    return negative ? -product : product;
}

const lut::DatapathTable &
Bce::convTable(unsigned bits)
{
    lut::DatapathTable &t = bits == 4 ? convTable4_ : convTable8_;
    if (!t.valid() || t.generation != sa->lutGeneration()) {
        if (!multLutLoaded)
            bfree_panic(
                "conv-mode multiply before the LUT image was loaded");
        // Seed from the legacy scalar path over the whole operand
        // space; the table can only ever reproduce the reference.
        t = lut::DatapathTable::build(
            bits, [this, bits](std::int32_t a, std::int32_t b) {
                lut::MultResult r;
                r.product = multiplyViaSubarrayLut(a, b, bits, r.counts);
                return r;
            });
        t.generation = sa->lutGeneration();
        ++convSeeds_;
    }
    return t;
}

const lut::DatapathTable &
Bce::romTable(unsigned bits)
{
    lut::DatapathTable &t = bits == 4 ? romTable4_ : romTable8_;
    if (!t.valid())
        t = lut::build_rom_datapath_table(bits, rom);
    return t;
}

std::int64_t
Bce::multiply(std::int32_t a, std::int32_t b, unsigned bits)
{
    if (bits != 4 && bits != 8 && bits != 16)
        bfree_fatal("unsupported BCE multiply precision: ", bits);

    if (_mode == BceMode::Matmul) {
        // Hardwired ROM path; the analyzer counts ROM lookups.
        lut::MultResult r = lut::multiply_signed(
            a, b, bits, rom, lut::LookupSource::BceRom);
        stats_.counts += r.counts;
        return r.product;
    }
    lut::MicroOpCounts c;
    const std::int64_t product = multiplyViaSubarrayLut(a, b, bits, c);
    stats_.counts += c;
    noteConvLutReads(c.lutLookups);
    return product;
}

void
Bce::chargeMacs(std::uint64_t macs, unsigned bits)
{
    chargeCycles(macs * (bits / 4));
    stats_.macs += macs;
}

template <typename T>
std::int64_t
Bce::scalarSpan(const T *a, const T *b, std::size_t len, unsigned bits)
{
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < len; ++i) {
        std::int32_t x = a[i], y = b[i];
        if (_mode == BceMode::Matmul) {
            const lut::MultResult r = lut::multiply_signed(
                x, y, bits, rom, lut::LookupSource::BceRom);
            stats_.counts += r.counts;
            acc += r.product;
            ++stats_.counts.adds; // one lane add per element
            continue;
        }
        if (bits == 4) {
            x = std::clamp(x, -8, 7);
            y = std::clamp(y, -8, 7);
        }
        lut::MicroOpCounts c;
        acc += multiplyViaSubarrayLut(x, y, bits, c);
        stats_.counts += c;
        noteConvLutReads(c.lutLookups);
        if (i > 0)
            ++stats_.counts.adds;
    }
    chargeMacs(len, bits);
    return acc;
}

std::int32_t
Bce::dotProduct(std::size_t weight_offset, const std::int8_t *inputs,
                std::size_t len, unsigned bits)
{
    if (_mode != BceMode::Conv)
        bfree_panic("dotProduct requires conv mode");

    const unsigned bytes_per_weight = bits <= 8 ? 1 : 2;
    std::vector<std::uint8_t> weights(len * bytes_per_weight);
    sa->read(weight_offset, weights.data(), weights.size());

    if (bytes_per_weight == 1)
        return dotProductSpan(
            reinterpret_cast<const std::int8_t *>(weights.data()), inputs,
            len, bits);

    std::vector<std::int32_t> w(len);
    for (std::size_t i = 0; i < len; ++i)
        w[i] = static_cast<std::int16_t>(weights[2 * i]
                                         | (weights[2 * i + 1] << 8));
    const std::vector<std::int32_t> x(inputs, inputs + len);
    return static_cast<std::int32_t>(scalarSpan(w.data(), x.data(), len,
                                                bits));
}

std::int32_t
Bce::dotProductSpan(const std::int8_t *weights, const std::int8_t *inputs,
                    std::size_t len, unsigned bits)
{
    if (_mode != BceMode::Conv)
        bfree_panic("dotProduct requires conv mode");
    if (_tier != ExecTier::Tiered || !lut::DatapathTable::coversBits(bits))
        return static_cast<std::int32_t>(
            scalarSpan(weights, inputs, len, bits));

    // The dispatched SIMD kernel returns exactly the sums the scalar
    // loop would have accumulated element by element.
    const simd::SpanSums s = simd::run_span(
        convTable(bits), weights, inputs, len,
        simd::SpanSemantics::ConvClamp);
    stats_.counts.lutLookups += s.lookups;
    stats_.counts.shifts += s.shifts;
    stats_.counts.adds += s.adds + (len > 0 ? len - 1 : 0);
    noteConvLutReads(s.lookups);
    chargeMacs(len, bits);
    return s.acc;
}

std::int64_t
Bce::dotSpanWide(const std::int32_t *a, const std::int32_t *b,
                 std::size_t len, unsigned bits)
{
    if (_mode == BceMode::Special)
        bfree_panic("dotSpanWide requires conv or matmul mode");
    return scalarSpan(a, b, len, bits);
}

void
Bce::broadcastMac(std::int32_t a, const std::int8_t *b, std::size_t n,
                  std::int32_t *acc, unsigned bits)
{
    if (_mode != BceMode::Matmul)
        bfree_panic("broadcastMac requires matmul mode");
    if (n > bce_vector_width)
        bfree_panic("broadcastMac width ", n, " exceeds the register file "
                    "width ", bce_vector_width);

    for (std::size_t i = 0; i < n; ++i) {
        lut::MultResult r = lut::multiply_signed(
            a, b[i], bits, rom, lut::LookupSource::BceRom);
        stats_.counts += r.counts;
        acc[i] += static_cast<std::int32_t>(r.product);
        ++stats_.counts.adds;
    }

    // One LS-4/MS-4 pass per operand nibble, independent of n (Fig. 7).
    chargeCycles(bits / 4);
    stats_.macs += n;
}

std::int32_t
Bce::matmulDotSpan(const std::int8_t *a, const std::int8_t *b,
                   std::size_t len, unsigned bits)
{
    if (_mode != BceMode::Matmul)
        bfree_panic("matmulDotSpan requires matmul mode");
    if (_tier != ExecTier::Tiered || !lut::DatapathTable::coversBits(bits))
        return static_cast<std::int32_t>(scalarSpan(a, b, len, bits));

    const simd::SpanSums s = simd::run_span(
        romTable(bits), a, b, len, simd::SpanSemantics::MatmulStrict);
    if (!s.inRange) // the analyzer raises the legacy range panic
        lut::multiply_signed(a[s.firstOutOfRange], b[s.firstOutOfRange],
                             bits, rom, lut::LookupSource::BceRom);
    stats_.counts.romLookups += s.lookups;
    stats_.counts.shifts += s.shifts;
    stats_.counts.adds += s.adds + len; // one lane add per element
    stats_.counts.cycles += s.cycles;
    chargeMacs(len, bits);
    return s.acc;
}

const lut::DatapathTable *
Bce::tileTable(unsigned bits, std::size_t k, const std::uint32_t *bFeatures,
               std::int32_t aLimit)
{
    if (_tier != ExecTier::Tiered || !lut::DatapathTable::coversBits(bits))
        return nullptr;
    const lut::DatapathTable &t =
        _mode == BceMode::Conv ? convTable(bits) : romTable(bits);
    if (!simd::histogram_eligible(t))
        return nullptr;
    // The GEMM is only the per-span path when no operand needs that
    // path's domain handling. int8 always fits the 8-bit domain; 4-bit
    // tiles check both ranges.
    const auto [lo, hi] = tileDomain(t);
    if (-aLimit < lo || aLimit > hi
        || !simd::features_in_domain(bFeatures, k, lo, hi))
        return nullptr;
    return &t;
}

std::pair<std::int32_t, std::int32_t>
Bce::tileDomain(const lut::DatapathTable &t) const
{
    return {-t.half(), _mode == BceMode::Conv ? t.half() - 1 : t.half()};
}

Bce::TileTally
Bce::foldTile(const lut::DatapathTable &t, std::size_t m, std::size_t k,
              std::size_t n, const std::uint32_t *aFeatures,
              const std::uint32_t *bFeatures)
{
    // sum_{spans} sum_k f(x)f(w) = sum_k F_x(k) F_w(k): the tile's
    // micro-op tallies are exactly the m*n per-span tallies summed.
    return {simd::fold_tile_features(aFeatures, bFeatures, k,
                                     t.cyclesFactor()),
            std::uint64_t{m} * n};
}

void
Bce::bookTile(const TileTally &tally, std::size_t k, unsigned bits)
{
    const simd::SpanSums &s = tally.sums;
    stats_.counts.shifts += s.shifts;
    if (_mode == BceMode::Conv) {
        stats_.counts.lutLookups += s.lookups;
        // len - 1 accumulator adds per span.
        stats_.counts.adds += s.adds + (k > 0 ? tally.spans * (k - 1) : 0);
        noteConvLutReads(s.lookups);
    } else {
        stats_.counts.romLookups += s.lookups;
        stats_.counts.adds += s.adds + tally.spans * k; // one lane add each
        stats_.counts.cycles += s.cycles;
    }
    chargeMacs(tally.spans * k, bits);
}

bool
Bce::runTile(const std::int8_t *a, const std::int8_t *b, std::int32_t *out,
             std::size_t m, std::size_t k, std::size_t n, unsigned bits,
             const std::uint32_t *bFeatures, const std::int32_t *bRowSums,
             std::uint32_t *scratch)
{
    if (m == 0 || n == 0)
        return false;
    std::vector<std::uint32_t> ownX, ownB;
    if (bFeatures == nullptr) {
        ownB.resize(tileScratchWords(k));
        simd::class_feature_sums(b, n, k, ownB.data());
        bFeatures = ownB.data();
    }
    const lut::DatapathTable *t = tileTable(bits, k, bFeatures, 0);
    if (t == nullptr)
        return false;
    if (scratch == nullptr) {
        ownX.resize(tileScratchWords(k));
        scratch = ownX.data();
    }
    simd::class_feature_sums(a, m, k, scratch);
    const auto [lo, hi] = tileDomain(*t);
    if (!simd::features_in_domain(scratch, k, lo, hi))
        return false;
    if (_mode == BceMode::Conv)
        std::fill(out, out + m * n, 0);
    simd::gemm_i8(a, b, out, m, k, n, bRowSums);
    bookTile(foldTile(*t, m, k, n, scratch, bFeatures), k, bits);
    return true;
}

void
Bce::convTile(const std::int8_t *a, const std::int8_t *w,
              std::int32_t *out, std::size_t m, std::size_t k,
              std::size_t n, unsigned bits,
              const std::uint32_t *wFeatures, const std::int32_t *wRowSums,
              std::uint32_t *scratch)
{
    if (_mode != BceMode::Conv)
        bfree_panic("convTile requires conv mode");

    if (runTile(a, w, out, m, k, n, bits, wFeatures, wRowSums, scratch))
        return;
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            out[i * n + j] = dotProductSpan(w + j * k, a + i * k, k, bits);
}

void
Bce::matmulTile(const std::int8_t *a, const std::int8_t *bt,
                std::int32_t *out, std::size_t m, std::size_t k,
                std::size_t n, unsigned bits,
                const std::uint32_t *btFeatures,
                const std::int32_t *btRowSums, std::uint32_t *scratch)
{
    if (_mode != BceMode::Matmul)
        bfree_panic("matmulTile requires matmul mode");

    if (runTile(a, bt, out, m, k, n, bits, btFeatures, btRowSums, scratch))
        return;
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            out[i * n + j] += matmulDotSpan(a + i * k, bt + j * k, k, bits);
}

std::int32_t
Bce::accumulateIncoming(std::int32_t local, std::int32_t incoming)
{
    ++stats_.counts.adds;
    // The add shares the pipeline's writeback cycle; no extra cycle.
    return local + incoming;
}

double
Bce::evaluatePwl(const lut::PwlTable &table, double x)
{
    double y;
    evaluatePwlSpan(table, &x, &y, 1);
    return y;
}

void
Bce::evaluatePwlSpan(const lut::PwlTable &table, const double *in,
                     double *out, std::size_t n)
{
    pwlValues(table, in, out, n);
    bookPwl(n);
}

void
Bce::pwlValues(const lut::PwlTable &table, const double *in, double *out,
               std::size_t n) const
{
    if (_tier == ExecTier::Legacy || !simd::pwl_span(table, in, out, n)) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = table.evaluate(in[i]);
    }
}

void
Bce::bookPwl(std::size_t n)
{
    const lut::MicroOpCounts one = lut::PwlTable::evalCounts();
    stats_.counts.lutLookups += n * one.lutLookups;
    stats_.counts.romLookups += n * one.romLookups;
    stats_.counts.shifts += n * one.shifts;
    stats_.counts.adds += n * one.adds;
    stats_.counts.cycles += n * one.cycles;
    // Each alpha/beta fetch reads the sub-array LUT rows.
    stats_.specialLutEvents += n;
    chargeCycles(n * one.cycles);
}

double
Bce::divide(double x, double y, const lut::DivisionLut &div)
{
    lut::MicroOpCounts counts;
    const double q = div.divide(x, y, &counts);
    stats_.counts += counts;
    ++stats_.specialLutEvents;
    chargeCycles(counts.cycles);
    return q;
}

std::int32_t
Bce::maxReduce(const std::int32_t *values, std::size_t n)
{
    if (n == 0)
        bfree_panic("maxReduce over an empty window");
    std::int32_t best = values[0];
    for (std::size_t i = 1; i < n; ++i) {
        if (values[i] > best)
            best = values[i];
        ++stats_.counts.adds; // comparator shares the adder
    }
    chargeCycles(n > 1 ? n - 1 : 1);
    return best;
}

void
Bce::reluQ8(const float *in, float *out, std::size_t n)
{
    simd::relu_q8_span(in, out, n);
    bookRelu(n);
}

void
Bce::bookRelu(std::size_t n)
{
    // maxReduce({0, q}, 2) per element: one comparator add, one cycle.
    stats_.counts.adds += n;
    chargeCycles(n);
}

void
Bce::poolQ8(const PoolShape &g, bool average, const lut::DivisionLut &div,
            const float *in, float *out, sim::ThreadPool *pool)
{
    // Unpadded 2x2 / stride-2 max pooling (VGG's only pool) has a
    // vector form: four taps, so 3 adds and 3 cycles per window. The
    // output rows are independent, so contiguous runs of them go to
    // the pool's threads; the kernel declines on every thread or on
    // none (it depends on the active level only).
    const std::size_t inRow = g.inW * g.channels;
    const std::size_t outRow = g.outW * g.channels;
    if (!average && g.kernelH == 2 && g.kernelW == 2 && g.strideH == 2
        && g.strideW == 2 && g.padH == 0 && g.padW == 0
        && g.outH == g.inH / 2 && g.outW == g.inW / 2) {
        const auto run = [&](std::size_t oh0, std::size_t oh1) {
            return simd::max_pool_2x2_q8(in + 2 * oh0 * inRow, oh1 - oh0,
                                         g.inW, g.channels,
                                         out + oh0 * outRow);
        };
        bool vector = true;
        if (pool != nullptr && pool->threads() > 1 && g.outH > 1) {
            const std::size_t chunks =
                std::min<std::size_t>(pool->threads(), g.outH);
            std::atomic<bool> ran{true};
            pool->parallelFor(chunks, [&](std::size_t c, unsigned) {
                if (!run(c * g.outH / chunks, (c + 1) * g.outH / chunks))
                    ran.store(false, std::memory_order_relaxed);
            });
            vector = ran.load(std::memory_order_relaxed);
        } else {
            vector = run(0, g.outH);
        }
        if (vector) {
            const std::uint64_t windows = g.channels * g.outH * g.outW;
            stats_.counts.adds += 3 * windows;
            chargeCycles(3 * windows);
            return;
        }
    }
    std::uint64_t adds = 0, cycles = 0;
    for (std::size_t oh = 0; oh < g.outH; ++oh) {
        // The window clipped to the input, as maxReduce/avgPool
        // callers gather it: in-bounds taps only.
        const long h0 = static_cast<long>(oh * g.strideH)
                        - static_cast<long>(g.padH);
        const std::size_t r0 = static_cast<std::size_t>(std::max(h0, 0L));
        const std::size_t r1 = static_cast<std::size_t>(
            std::clamp(h0 + static_cast<long>(g.kernelH), 0L,
                       static_cast<long>(g.inH)));
        for (std::size_t ow = 0; ow < g.outW; ++ow) {
            const long w0 = static_cast<long>(ow * g.strideW)
                            - static_cast<long>(g.padW);
            const std::size_t s0 =
                static_cast<std::size_t>(std::max(w0, 0L));
            const std::size_t s1 = static_cast<std::size_t>(
                std::clamp(w0 + static_cast<long>(g.kernelW), 0L,
                           static_cast<long>(g.inW)));
            const std::size_t wn = (r1 - r0) * (s1 - s0);
            if (wn == 0)
                bfree_panic(average ? "avgPool over an empty window"
                                    : "maxReduce over an empty window");
            float *slots = out + oh * outRow + ow * g.channels;
            for (std::size_t c = 0; c < g.channels; ++c) {
                std::int32_t best = 0;
                std::int64_t sum = 0;
                bool first = true;
                for (std::size_t r = r0; r < r1; ++r) {
                    for (std::size_t s = s0; s < s1; ++s) {
                        const std::int32_t v =
                            simd::q8(in[r * inRow + s * g.channels + c]);
                        if (first || v > best)
                            best = v;
                        sum += v;
                        first = false;
                    }
                }
                adds += wn - 1;
                cycles += wn > 1 ? wn - 1 : 1;
                if (average) {
                    const double q =
                        divide(static_cast<double>(std::llabs(sum)),
                               static_cast<double>(wn), div);
                    slots[c] = static_cast<float>(sum < 0 ? -q : q) / 256.0f;
                } else {
                    slots[c] = static_cast<float>(best) / 256.0f;
                }
            }
        }
    }
    stats_.counts.adds += adds;
    chargeCycles(cycles);
}

double
Bce::avgPool(const std::int32_t *values, std::size_t n,
             const lut::DivisionLut &div)
{
    if (n == 0)
        bfree_panic("avgPool over an empty window");
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += values[i];
        if (i > 0)
            ++stats_.counts.adds;
    }
    chargeCycles(n > 1 ? n - 1 : 1);
    const bool negative = sum < 0;
    const double q = divide(static_cast<double>(std::llabs(sum)),
                            static_cast<double>(n), div);
    return negative ? -q : q;
}

std::int32_t
Bce::requantize(std::int32_t acc, const lut::RequantScale &scale,
                std::int32_t zero_point, unsigned out_bits)
{
    const std::int32_t out =
        lut::requantize(acc, scale, zero_point, out_bits);
    // One ROM multiply, one shift, one saturating add.
    ++stats_.counts.romLookups;
    ++stats_.counts.shifts;
    ++stats_.counts.adds;
    chargeCycles(3);
    return out;
}

double
Bce::macsPerCycle(BceMode mode, unsigned bits)
{
    if (bits != 4 && bits != 8 && bits != 16)
        bfree_fatal("unsupported precision: ", bits);
    const double steps = bits / 4.0; // nibble passes per operand
    switch (mode) {
      case BceMode::Conv:
        return 1.0 / steps; // 0.5 MAC/cycle at 8-bit
      case BceMode::Matmul:
        return bce_vector_width / steps; // 4 MACs/cycle at 8-bit
      case BceMode::Special:
        return 0.0;
    }
    return 0.0;
}

} // namespace bfree::bce
