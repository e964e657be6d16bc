/**
 * @file
 * Runtime CPU-feature detection and SIMD dispatch policy.
 *
 * The tiered datapath's span kernels exist in several ISA variants
 * (scalar, SSE4.2, AVX2, AVX-512, AVX512-VNNI, AMX-INT8, NEON), all
 * compiled into one binary via function-level target attributes. This
 * module decides, once per process, which variant the dispatchers hand
 * out:
 *
 *  - by default, the widest level both compiled in AND reported by the
 *    CPU at runtime;
 *  - `BFREE_FORCE_SCALAR=1` in the environment forces the scalar
 *    fallback (CI uses this to differentially verify every SIMD
 *    variant against the scalar tier on one host);
 *  - `BFREE_FORCE_ISA=scalar|sse42|avx2|avx512|avx512vnni|amx|neon`
 *    pins one specific level. `avx512`, `avx512vnni` and `amx` run the
 *    same span, feature-sum, quantize and epilogue kernels
 *    (has_avx512) and differ only in the int8 GEMM core: widening
 *    `madd`, `vpdpbusd`, and `tdpbssd` for the conv GEMMs whose
 *    filters were packed into panels (the rest run `vpdpbusd`).
 *    Forcing `avx512` and `avx512vnni` on an AMX host keeps the two
 *    vector cores covered.
 *    Requesting a level the binary lacks or the CPU cannot execute is
 *    a fatal configuration error — it fails loudly instead of silently
 *    degrading, so a CI matrix knows it exercised what it asked for.
 *
 * Tests may also pin the level programmatically (force_simd_level) to
 * compare several variants inside one process.
 */

#ifndef BFREE_SIM_CPUID_HH
#define BFREE_SIM_CPUID_HH

namespace bfree::sim {

/** SIMD instruction-set levels the span kernels are specialized for,
 *  in strictly increasing width/priority order. */
enum class SimdLevel
{
    Scalar = 0, ///< Portable fallback; also the BFREE_FORCE_SCALAR target.
    Sse42 = 1,  ///< 128-bit x86 (SSE4.2: widening converts + pmulld).
    Neon = 2,   ///< 128-bit AArch64 Advanced SIMD.
    Avx2 = 3,   ///< 256-bit x86 with hardware gather.
    Avx512 = 4, ///< 512-bit x86 (requires the F+BW+VL feature trio).
    /** Avx512 plus VNNI: the int8 GEMM runs on vpdpbusd. */
    Avx512Vnni = 5,
    /**
     * Avx512Vnni plus AMX-TILE and AMX-INT8, with the OS tile state
     * enabled (XCR0 bits 17/18) and granted to the process
     * (arch_prctl(ARCH_REQ_XCOMP_PERM), asked once): the conv GEMM
     * runs on tdpbssd.
     */
    AmxInt8 = 6,
};

/** True at the levels that run the AVX-512 kernel families (span,
 *  feature and row sums, quantize, max-abs, epilogue, pool, PWL):
 *  Avx512, Avx512Vnni and AmxInt8. */
constexpr bool
has_avx512(SimdLevel level)
{
    return level == SimdLevel::Avx512 || level == SimdLevel::Avx512Vnni
           || level == SimdLevel::AmxInt8;
}

/** Human-readable name ("scalar", "sse42", "neon", "avx2", "avx512",
 *  "avx512vnni", "amx"). */
const char *simd_level_name(SimdLevel level);

/** True when this binary carries kernels for @p level (compile-time). */
bool simd_level_compiled(SimdLevel level);

/** True when the running CPU can execute @p level (runtime probe). */
bool simd_level_supported(SimdLevel level);

/**
 * The level the dispatchers use: widest compiled+supported level,
 * after applying the BFREE_FORCE_SCALAR / BFREE_FORCE_ISA environment
 * overrides. Resolved once and cached; a malformed or unsatisfiable
 * override is fatal at first use.
 */
SimdLevel active_simd_level();

/**
 * Pin the active level programmatically (overrides the cached choice
 * and any environment override). Fatal when @p level is not compiled
 * in or not supported by the CPU. Intended for tests and benchmarks
 * that sweep every available variant in one process.
 */
void force_simd_level(SimdLevel level);

/** Drop a force_simd_level pin and re-resolve from the environment. */
void reset_simd_level();

} // namespace bfree::sim

#endif // BFREE_SIM_CPUID_HH
