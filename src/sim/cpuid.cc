#include "cpuid.hh"

#include <cstdlib>
#include <cstring>
#include <optional>

#include "logging.hh"

#if defined(__x86_64__)
#include <cpuid.h>
#endif
#if defined(__x86_64__) && defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace bfree::sim {

namespace {

/** The one resolved level; std::nullopt until first use. */
std::optional<SimdLevel> resolved;

/**
 * AMX-TILE and AMX-INT8 usable by this process: CPUID leaf 7 EDX bits
 * 24/25, the OS enabling the tile config and data state (XCR0 bits
 * 17/18), and Linux granting the tile data to the process. The grant
 * is asked for once and covers every thread; without it the first
 * tile instruction faults. gcc 12's __builtin_cpu_supports does not
 * report AMX, so the bits are read here.
 */
bool
amx_int8_usable()
{
#if defined(__x86_64__) && defined(__linux__)
    static const bool usable = [] {
        unsigned a = 0, b = 0, c = 0, d = 0;
        if (__get_cpuid(1, &a, &b, &c, &d) == 0 || (c & (1u << 27)) == 0)
            return false; // no OSXSAVE: xgetbv would fault
        if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0)
            return false;
        constexpr unsigned amxTile = 1u << 24, amxInt8 = 1u << 25;
        if ((d & (amxTile | amxInt8)) != (amxTile | amxInt8))
            return false;
        unsigned lo = 0, hi = 0;
        __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
        constexpr unsigned tileState = (1u << 17) | (1u << 18);
        if ((lo & tileState) != tileState)
            return false;
        constexpr long archReqXcompPerm = 0x1023;
        constexpr long xfeatureXtiledata = 18;
        return syscall(SYS_arch_prctl, archReqXcompPerm,
                       xfeatureXtiledata) == 0;
    }();
    return usable;
#else
    return false;
#endif
}

SimdLevel
widest_available()
{
    for (const SimdLevel level :
         {SimdLevel::AmxInt8, SimdLevel::Avx512Vnni, SimdLevel::Avx512,
          SimdLevel::Avx2, SimdLevel::Neon, SimdLevel::Sse42}) {
        if (simd_level_compiled(level) && simd_level_supported(level))
            return level;
    }
    return SimdLevel::Scalar;
}

/** Parse a BFREE_FORCE_ISA value; fatal on an unknown name. */
SimdLevel
parse_level(const char *name)
{
    for (const SimdLevel level :
         {SimdLevel::Scalar, SimdLevel::Sse42, SimdLevel::Neon,
          SimdLevel::Avx2, SimdLevel::Avx512, SimdLevel::Avx512Vnni,
          SimdLevel::AmxInt8}) {
        if (!std::strcmp(name, simd_level_name(level)))
            return level;
    }
    bfree_fatal("BFREE_FORCE_ISA=", name, " is not a known ISA "
                "(expected scalar, sse42, neon, avx2, avx512, "
                "avx512vnni or amx)");
}

/** Validate a requested level against the binary and the CPU. */
void
require_runnable(SimdLevel level, const char *origin)
{
    if (!simd_level_compiled(level))
        bfree_fatal(origin, " requested ISA '", simd_level_name(level),
                    "' but this binary was not built with kernels for "
                    "it");
    if (!simd_level_supported(level))
        bfree_fatal(origin, " requested ISA '", simd_level_name(level),
                    "' but this CPU does not support it");
}

SimdLevel
resolve_from_environment()
{
    const char *scalar = std::getenv("BFREE_FORCE_SCALAR");
    if (scalar != nullptr && scalar[0] != '\0'
        && std::strcmp(scalar, "0") != 0)
        return SimdLevel::Scalar;

    const char *isa = std::getenv("BFREE_FORCE_ISA");
    if (isa != nullptr && isa[0] != '\0') {
        const SimdLevel level = parse_level(isa);
        require_runnable(level, "BFREE_FORCE_ISA");
        return level;
    }
    return widest_available();
}

} // namespace

const char *
simd_level_name(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Scalar:
        return "scalar";
      case SimdLevel::Sse42:
        return "sse42";
      case SimdLevel::Neon:
        return "neon";
      case SimdLevel::Avx2:
        return "avx2";
      case SimdLevel::Avx512:
        return "avx512";
      case SimdLevel::Avx512Vnni:
        return "avx512vnni";
      case SimdLevel::AmxInt8:
        return "amx";
    }
    return "unknown";
}

bool
simd_level_compiled(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Scalar:
        return true;
      case SimdLevel::Sse42:
      case SimdLevel::Avx2:
      case SimdLevel::Avx512:
      case SimdLevel::Avx512Vnni:
#if defined(__x86_64__) || defined(__i386__)
        return true;
#else
        return false;
#endif
      case SimdLevel::AmxInt8:
        // The tile instructions exist in 64-bit mode only.
#if defined(__x86_64__)
        return true;
#else
        return false;
#endif
      case SimdLevel::Neon:
#if defined(__ARM_NEON)
        return true;
#else
        return false;
#endif
    }
    return false;
}

bool
simd_level_supported(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Scalar:
        return true;
      case SimdLevel::Sse42:
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_cpu_supports("sse4.2") != 0;
#else
        return false;
#endif
      case SimdLevel::Avx2:
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
      case SimdLevel::Avx512:
#if defined(__x86_64__) || defined(__i386__)
        // The kernels use byte shuffles/compares in 512-bit lanes and
        // narrowing converts on 256-bit lanes, so foundation alone is
        // not enough: require the F+BW+VL trio every mainstream
        // AVX-512 server core ships together.
        return __builtin_cpu_supports("avx512f") != 0
               && __builtin_cpu_supports("avx512bw") != 0
               && __builtin_cpu_supports("avx512vl") != 0;
#else
        return false;
#endif
      case SimdLevel::Avx512Vnni:
#if defined(__x86_64__) || defined(__i386__)
        return simd_level_supported(SimdLevel::Avx512)
               && __builtin_cpu_supports("avx512vnni") != 0;
#else
        return false;
#endif
      case SimdLevel::AmxInt8:
        return simd_level_supported(SimdLevel::Avx512Vnni)
               && amx_int8_usable();
      case SimdLevel::Neon:
#if defined(__ARM_NEON)
        // AArch64 mandates Advanced SIMD; compiled in implies runnable.
        return true;
#else
        return false;
#endif
    }
    return false;
}

SimdLevel
active_simd_level()
{
    if (!resolved)
        resolved = resolve_from_environment();
    return *resolved;
}

void
force_simd_level(SimdLevel level)
{
    require_runnable(level, "force_simd_level");
    resolved = level;
}

void
reset_simd_level()
{
    resolved = resolve_from_environment();
}

} // namespace bfree::sim
