/**
 * @file
 * Roofline and scaling study of the SIMD tiered datapath.
 *
 * Measurements, one JSON document (default BENCH_pr10.json):
 *
 *  - host: hardware threads and the ISA the dispatcher resolved, so
 *    every number downstream can be read in context.
 *
 *  - membw: a STREAM-triad pass (c[i] = a[i] + s * b[i] over arrays
 *    far larger than LLC) giving the memory bandwidth that bounds any
 *    streaming kernel on this host.
 *
 *  - kernel_<isa>: steady-state conv/matmul MAC/s of the tiered span
 *    kernels with the dispatcher pinned to each ISA variant this
 *    binary carries AND this CPU supports (scalar always; sse42/avx2/
 *    avx512 on x86, neon on ARM). speedup_vs_scalar compares the conv
 *    point against the scalar tiered loop.
 *
 *  - stages: whole-image wall time of one conv layer through the
 *    channels-last front at the resolved ISA, split into marshal
 *    (everything that produces int8 patches: the quantize into the
 *    staged HWC plane and the Kh-run patch copies) vs the tiered span
 *    kernels. The section also
 *    carries the modeled marshal traffic in bytes and the bandwidth
 *    that implies, so marshal cost can be cross-checked against the
 *    triad roof. images_per_s_auto is the gated whole-image rate.
 *
 *  - roofline: the tiered MAC streams two int8 operands per multiply
 *    (the tables and tallies stay cache-resident), so the bandwidth
 *    roof is membw / 2 MAC/s. achieved_fraction locates the best
 *    measured kernel against that roof.
 *
 *  - scaling: aggregate MAC/s with 1/2/4/8 ThreadPool workers, each
 *    owning a private engine (the production batch-dispatch shape).
 *    On a 1-hardware-thread host the efficiency figures could only
 *    measure oversubscription, so the section records skipped = 1 and
 *    nothing else is emitted or gated.
 *
 * With --check-baseline FILE the run exits 1 on a >5x collapse of any
 * kernel point present in both the run and the baseline.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bce/bce.hh"
#include "bce/simd_kernels.hh"
#include "core/conv_front.hh"
#include "dnn/layer.hh"
#include "dnn/quantize.hh"
#include "mem/energy_account.hh"
#include "mem/subarray.hh"
#include "sim/bench_json.hh"
#include "sim/cpuid.hh"
#include "sim/parallel.hh"
#include "tech/geometry.hh"
#include "tech/tech_params.hh"

namespace {

using namespace bfree;

/** A self-contained tiered BCE rig. */
struct Engine
{
    tech::CacheGeometry geom{};
    tech::TechParams tech{};
    mem::EnergyAccount account;
    mem::Subarray subarray{geom, tech, account};
    bce::Bce bce{subarray, tech, account};

    explicit Engine(bce::BceMode mode)
    {
        bce.setTier(bce::ExecTier::Tiered);
        bce.loadMultLutImage();
        bce.setMode(mode);
    }
};

/** Deterministic int8 operand pattern within [-limit, limit]. */
std::vector<std::int8_t>
pattern(std::size_t n, int seed, int limit)
{
    std::vector<std::int8_t> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        const int r = static_cast<int>((i * 37 + seed * 101) % 1000);
        v[i] = static_cast<std::int8_t>(r % (2 * limit + 1) - limit);
    }
    return v;
}

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - start)
        .count();
}

/**
 * STREAM-triad memory bandwidth: three float arrays well past any LLC,
 * best-of-3 timed passes, 3 streamed floats (2 loads + 1 store) per
 * element.
 */
double
measure_membw_bytes_per_s()
{
    const std::size_t n = 16u << 20; // 3 x 64 MiB of floats
    std::vector<float> a(n, 1.0f), b(n, 2.0f), c(n, 0.0f);
    const float s = 3.0f;

    double best = 0.0;
    for (int pass = 0; pass < 4; ++pass) {
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < n; ++i)
            c[i] = a[i] + s * b[i];
        const double secs = seconds_since(start);
        const double bytes = 3.0 * static_cast<double>(n) * sizeof(float);
        if (pass > 0 && secs > 0.0) // pass 0 is the page-fault warm-up
            best = std::max(best, bytes / secs);
        // Fold the result back in so the triad cannot be optimized out.
        a[0] += c[n - 1] * 1e-30f;
    }
    return best;
}

/** Steady-state MAC/s of one span kernel on the active ISA. */
double
measure_kernel_macs_per_s(bce::BceMode mode, unsigned bits,
                          std::size_t reps, std::int64_t &checksum)
{
    const std::size_t len = 512;
    const int limit = bits == 4 ? 7 : 127;
    const std::vector<std::int8_t> a = pattern(len, 1, limit);
    const std::vector<std::int8_t> b = pattern(len, 2, limit);

    Engine e(mode);
    auto pass = [&]() -> std::int64_t {
        if (mode == bce::BceMode::Conv)
            return e.bce.dotProductSpan(a.data(), b.data(), len, bits);
        return e.bce.matmulDotSpan(a.data(), b.data(), len, bits);
    };
    checksum += pass(); // warm-up: table seeding stays untimed

    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r)
        checksum += pass();
    const double secs = seconds_since(start);
    const double macs = static_cast<double>(reps) * len;
    return secs > 0.0 ? macs / secs : 0.0;
}

/** Per-image marshal cost of the conv front end. */
struct MarshalResult
{
    double quantize = 0.0; ///< Quantize-and-stage share.
    double marshal = 0.0;  ///< Everything producing patches, quantize
                           ///< included.

    /** Modeled marshal traffic per image in bytes (reads + writes,
     *  padded taps counted as writes only on the read side — an upper
     *  bound within a few percent for padded layers). */
    double marshalBytes = 0.0;
};

/**
 * The stage-study rig: one conv layer (3x3 stride-1 pad-1, 32x16x16
 * -> 32 channels) through the production front of core/conv_front.hh
 * (the quantize of a channels-last input into the zero-padded HWC
 * plane, one span per row, then the Kh-run patch
 * copies of every output row) on one thread, marshalling every output
 * position's int8 patch into one buffer.
 *
 * Marshal and kernel are timed SEPARATELY: the kernel loop reads only
 * the marshalled patch buffer.
 */
struct StageRig
{
    dnn::Layer l = dnn::make_conv("stage", {32, 16, 16}, 32, 3, 1, 1);
    dnn::FeatureShape out = l.outputShape();
    std::size_t in_elems = l.input.elements();
    std::size_t patch_len =
        std::size_t(l.input.c) * l.kernelH * l.kernelW;
    std::size_t positions = std::size_t(out.h) * out.w;

    std::vector<float> in;
    dnn::SymQuant sq;
    core::HwcPlane hp = core::hwc_plane(l);
    std::vector<std::int8_t> plane, patches, weights;

    StageRig()
    {
        in.resize(in_elems);
        for (std::size_t i = 0; i < in_elems; ++i)
            in[i] = static_cast<float>(static_cast<int>(i * 13 % 255)
                                       - 127)
                    / 64.0f;
        sq.scale = 1.0 / 64.0;
        plane.resize(hp.bytes());
        patches.resize(positions * patch_len);
        weights = pattern(std::size_t(l.outChannels) * patch_len, 5,
                          127);
    }

    /** One whole-image marshal pass; returns the quantize-and-stage
     *  share of the pass's wall time. */
    double
    marshal_once()
    {
        const auto t0 = std::chrono::steady_clock::now();
        core::stage_hwc_rows(l, sq, in.data(), 0, hp.rows, plane.data());
        const double quantize = seconds_since(t0);
        for (unsigned oh = 0; oh < out.h; ++oh)
            bce::simd::copy_patch_row(core::conv_rows(l), plane.data(), oh,
                                      patches.data()
                                          + std::size_t(oh) * out.w
                                                * patch_len);
        return quantize;
    }

    /** Marshal timing: @p reps whole-image passes. */
    MarshalResult
    measure_marshal(std::size_t reps)
    {
        MarshalResult r;
        marshal_once(); // warm-up untimed
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < reps; ++i)
            r.quantize += marshal_once();
        r.marshal = seconds_since(t0);
        const double per = 1.0 / static_cast<double>(reps);
        r.quantize *= per;
        r.marshal *= per;

        // Modeled marshal traffic per image, all counted as touched
        // bytes: 4 B read per input float, the staged plane written
        // once (padding included) and 1 B each way per copied patch
        // byte.
        const double patch_bytes = static_cast<double>(positions)
                                   * static_cast<double>(patch_len);
        r.marshalBytes = 4.0 * static_cast<double>(in_elems)
                         + static_cast<double>(hp.bytes())
                         + 2.0 * patch_bytes;
        return r;
    }

    /** Shared kernel timing: per-image seconds of the tiered span
     *  kernel over whatever patches are currently marshalled. */
    double
    measure_kernel(std::size_t reps, std::int64_t &checksum)
    {
        Engine e(bce::BceMode::Conv);
        // Warm-up pass seeds the conv table untimed.
        for (std::size_t p = 0; p < positions; ++p)
            checksum += e.bce.dotProductSpan(
                patches.data() + p * patch_len, weights.data(),
                patch_len, 8);
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t r = 0; r < reps; ++r)
            for (std::size_t p = 0; p < positions; ++p)
                for (unsigned oc = 0; oc < l.outChannels; ++oc)
                    checksum += e.bce.dotProductSpan(
                        patches.data() + p * patch_len,
                        weights.data() + std::size_t(oc) * patch_len,
                        patch_len, 8);
        return seconds_since(t0) / static_cast<double>(reps);
    }
};

/**
 * Aggregate MAC/s with @p threads pool workers, each running the
 * conv_8bit span workload on a private engine — the shape
 * run_functional_batch uses for batched inference.
 */
double
measure_scaling_macs_per_s(unsigned threads, std::size_t reps_per_thread)
{
    const std::size_t len = 512;
    const std::vector<std::int8_t> a = pattern(len, 1, 127);
    const std::vector<std::int8_t> b = pattern(len, 2, 127);

    std::vector<std::function<void()>> tasks;
    tasks.reserve(threads);
    std::vector<std::int64_t> sink(threads, 0);
    for (unsigned t = 0; t < threads; ++t) {
        tasks.push_back([&, t] {
            Engine e(bce::BceMode::Conv);
            for (std::size_t r = 0; r < reps_per_thread; ++r)
                sink[t] += e.bce.dotProductSpan(a.data(), b.data(), len,
                                                8);
        });
    }

    const auto start = std::chrono::steady_clock::now();
    sim::ThreadPool pool(threads);
    pool.run(std::move(tasks));
    const double secs = seconds_since(start);
    const double macs = static_cast<double>(threads)
                        * static_cast<double>(reps_per_thread) * len;
    return secs > 0.0 ? macs / secs : 0.0;
}

std::string
kernel_section(sim::SimdLevel level)
{
    return std::string("kernel_") + sim::simd_level_name(level);
}

constexpr sim::SimdLevel all_levels[] = {
    sim::SimdLevel::Scalar, sim::SimdLevel::Sse42, sim::SimdLevel::Neon,
    sim::SimdLevel::Avx2, sim::SimdLevel::Avx512};

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_pr10.json";
    std::string baseline_path;
    for (int i = 1; i + 1 < argc; ++i) {
        if (!std::strcmp(argv[i], "--out"))
            out_path = argv[i + 1];
        else if (!std::strcmp(argv[i], "--check-baseline"))
            baseline_path = argv[i + 1];
    }

    const unsigned hw = sim::resolve_threads(0);
    const sim::SimdLevel dispatched = sim::active_simd_level();
    std::cout << "micro_roofline: host has " << hw
              << " hardware thread(s); dispatcher resolved "
              << sim::simd_level_name(dispatched) << "\n";

    sim::BenchJson json;
    json.set("host", "hardware_threads", static_cast<double>(hw));
    json.set("host", "simd_level", static_cast<double>(dispatched));

    // ---- Memory bandwidth roof -------------------------------------
    const double membw = measure_membw_bytes_per_s();
    json.set("membw", "triad_bytes_per_s", membw);
    std::cout << "triad bandwidth: " << membw / 1e9 << " GB/s\n";

    // ---- Per-ISA kernel points --------------------------------------
    const std::size_t reps = 20000;
    std::int64_t checksum0 = 0; // scalar reference checksums
    double scalar_conv = 0.0;
    double best_conv = 0.0;
    for (const sim::SimdLevel level : all_levels) {
        if (!sim::simd_level_compiled(level)
            || !sim::simd_level_supported(level))
            continue;
        sim::force_simd_level(level);
        std::int64_t checksum = 0;

        const double conv = measure_kernel_macs_per_s(
            bce::BceMode::Conv, 8, reps, checksum);
        const double mm = measure_kernel_macs_per_s(
            bce::BceMode::Matmul, 8, reps, checksum);

        if (level == sim::SimdLevel::Scalar) {
            scalar_conv = conv;
            checksum0 = checksum;
        } else if (checksum != checksum0) {
            std::cerr << kernel_section(level)
                      << ": checksum diverged from scalar\n";
            return 2;
        }
        const std::string sec = kernel_section(level);
        json.set(sec, "conv_8bit_macs_per_s", conv);
        json.set(sec, "matmul_8bit_macs_per_s", mm);
        json.set(sec, "speedup_vs_scalar",
                 scalar_conv > 0.0 ? conv / scalar_conv : 0.0);
        best_conv = std::max(best_conv, conv);
        char line[200];
        std::snprintf(line, sizeof(line),
                      "%-14s conv %10.2f MMAC/s  matmul %10.2f MMAC/s  "
                      "vs scalar %5.2fx\n",
                      sec.c_str(), conv / 1e6, mm / 1e6,
                      scalar_conv > 0.0 ? conv / scalar_conv : 0.0);
        std::cout << line;
    }
    sim::reset_simd_level();

    // ---- Front-half breakdown at the resolved ISA -------------------
    {
        const std::size_t marshal_reps = 400;
        const std::size_t kernel_reps = 40;

        StageRig rig;
        const MarshalResult s = rig.measure_marshal(marshal_reps);
        std::int64_t stage_checksum = 0;
        const double kernel =
            rig.measure_kernel(kernel_reps, stage_checksum);
        const double total = s.marshal + kernel;
        const double marshal_bw =
            s.marshal > 0.0 ? s.marshalBytes / s.marshal : 0.0;

        json.set("stages", "quantize_ms_per_image", 1e3 * s.quantize);
        json.set("stages", "im2col_ms_per_image",
                 1e3 * (s.marshal - s.quantize));
        json.set("stages", "kernel_ms_per_image", 1e3 * kernel);
        json.set("stages", "front_half_fraction",
                 total > 0.0 ? s.marshal / total : 0.0);
        json.set("stages", "images_per_s_auto",
                 total > 0.0 ? 1.0 / total : 0.0);
        json.set("stages", "marshal_bytes_per_image", s.marshalBytes);
        json.set("stages", "marshal_bytes_per_s", marshal_bw);
        json.set("stages", "marshal_bw_fraction_of_triad",
                 membw > 0.0 ? marshal_bw / membw : 0.0);
        char line[220];
        std::snprintf(line, sizeof(line),
                      "stages: marshal %.4f ms  kernel %.3f ms  "
                      "front-half %4.1f%%  %6.1f im/s  marshal bw %5.2f "
                      "GB/s\n",
                      1e3 * s.marshal, 1e3 * kernel,
                      total > 0.0 ? 100.0 * s.marshal / total : 0.0,
                      total > 0.0 ? 1.0 / total : 0.0, marshal_bw / 1e9);
        std::cout << line;
    }

    // ---- Roofline placement -----------------------------------------
    // The steady-state tiered MAC streams exactly the two int8
    // operands; tables and tally state are cache-resident.
    const double bytes_per_mac = 2.0;
    const double roof = membw / bytes_per_mac;
    json.set("roofline", "stream_bytes_per_mac", bytes_per_mac);
    json.set("roofline", "roofline_macs_per_s", roof);
    json.set("roofline", "achieved_fraction",
             roof > 0.0 ? best_conv / roof : 0.0);
    std::cout << "bandwidth roof " << roof / 1e6
              << " MMAC/s; best kernel reaches "
              << (roof > 0.0 ? 100.0 * best_conv / roof : 0.0) << "%\n";

    // ---- Thread scaling ---------------------------------------------
    // On a 1-hardware-thread host every multi-worker point measures
    // oversubscription, not scaling: record the skip and emit no
    // efficiency figures at all rather than misleading ones.
    if (hw <= 1) {
        json.set("scaling", "skipped", 1.0);
        json.set("scaling", "hardware_threads", static_cast<double>(hw));
        std::cout << "scaling: skipped (1 hardware thread)\n";
    } else {
        const std::size_t reps_per_thread = 20000;
        double rate1 = 0.0, rate8 = 0.0;
        json.set("scaling", "skipped", 0.0);
        for (const unsigned t : {1u, 2u, 4u, 8u}) {
            const double rate =
                measure_scaling_macs_per_s(t, reps_per_thread);
            if (t == 1)
                rate1 = rate;
            if (t == 8)
                rate8 = rate;
            const double eff =
                rate1 > 0.0 ? rate / (static_cast<double>(t) * rate1)
                            : 0.0;
            const std::string key_rate =
                "rate_t" + std::to_string(t) + "_macs_per_s";
            const std::string key_eff =
                "efficiency_t" + std::to_string(t);
            json.set("scaling", key_rate, rate);
            json.set("scaling", key_eff, eff);
            char line[120];
            std::snprintf(line, sizeof(line),
                          "threads %u: %10.2f MMAC/s  efficiency "
                          "%5.2f\n",
                          t, rate / 1e6, eff);
            std::cout << line;
        }
        json.set("scaling", "t8_over_t1",
                 rate1 > 0.0 ? rate8 / rate1 : 0.0);
        json.set("scaling", "hardware_threads", static_cast<double>(hw));
    }

    if (!json.save(out_path)) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << "\n";

    if (!baseline_path.empty()) {
        sim::BenchJson baseline;
        if (!baseline.load(baseline_path)) {
            std::cerr << "cannot load baseline " << baseline_path << "\n";
            return 1;
        }
        bool ok = true;
        // Only a >5x collapse vs the committed baseline fails, and only
        // for kernel points this host actually measured: the gate
        // catches algorithmic regressions, not runner noise or a
        // narrower-ISA runner.
        for (const sim::SimdLevel level : all_levels) {
            const std::string sec = kernel_section(level);
            const double now = json.get(sec, "conv_8bit_macs_per_s",
                                        0.0);
            const double ref = baseline.get(sec, "conv_8bit_macs_per_s",
                                            0.0);
            if (now > 0.0 && ref > 0.0 && now < ref / 5.0) {
                std::cerr << sec << ": conv " << now
                          << " MAC/s is >5x below baseline " << ref
                          << "\n";
                ok = false;
            }
        }
        {
            // The front half must not regress: a >5x collapse of the
            // whole-image rate fails like a kernel collapse would.
            const double now =
                json.get("stages", "images_per_s_auto", 0.0);
            const double ref =
                baseline.get("stages", "images_per_s_auto", 0.0);
            if (now > 0.0 && ref > 0.0 && now < ref / 5.0) {
                std::cerr << "stages: images_per_s_auto " << now
                          << " is >5x below baseline " << ref << "\n";
                ok = false;
            }
        }
        if (json.get("scaling", "skipped", 1.0) != 0.0) {
            std::cout << "note: scaling skipped on this host; points "
                         "not gated\n";
        } else {
            const double now = json.get("scaling", "t8_over_t1", 0.0);
            const double ref = baseline.get("scaling", "t8_over_t1",
                                            0.0);
            if (ref > 0.0 && now < ref / 5.0) {
                std::cerr << "scaling: t8_over_t1 " << now
                          << " is >5x below baseline " << ref << "\n";
                ok = false;
            }
        }
        if (!ok)
            return 1;
        std::cout << "baseline check passed (threshold: 5x)\n";
    }
    return 0;
}
