/**
 * @file
 * Runtime SIMD dispatch: level naming, capability queries, forced
 * overrides and the environment resolution CI leans on.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "sim/cpuid.hh"

namespace {

using namespace bfree;

TEST(Cpuid, LevelNamesAreStable)
{
    EXPECT_STREQ("scalar", sim::simd_level_name(sim::SimdLevel::Scalar));
    EXPECT_STREQ("sse42", sim::simd_level_name(sim::SimdLevel::Sse42));
    EXPECT_STREQ("neon", sim::simd_level_name(sim::SimdLevel::Neon));
    EXPECT_STREQ("avx2", sim::simd_level_name(sim::SimdLevel::Avx2));
    EXPECT_STREQ("avx512",
                 sim::simd_level_name(sim::SimdLevel::Avx512));
    EXPECT_STREQ("avx512vnni",
                 sim::simd_level_name(sim::SimdLevel::Avx512Vnni));
    EXPECT_STREQ("amx", sim::simd_level_name(sim::SimdLevel::AmxInt8));
}

TEST(Cpuid, Avx512KernelFamiliesServeEveryAvx512ClassLevel)
{
    EXPECT_FALSE(sim::has_avx512(sim::SimdLevel::Scalar));
    EXPECT_FALSE(sim::has_avx512(sim::SimdLevel::Sse42));
    EXPECT_FALSE(sim::has_avx512(sim::SimdLevel::Neon));
    EXPECT_FALSE(sim::has_avx512(sim::SimdLevel::Avx2));
    EXPECT_TRUE(sim::has_avx512(sim::SimdLevel::Avx512));
    EXPECT_TRUE(sim::has_avx512(sim::SimdLevel::Avx512Vnni));
    EXPECT_TRUE(sim::has_avx512(sim::SimdLevel::AmxInt8));
}

TEST(Cpuid, ScalarIsAlwaysCompiledAndSupported)
{
    EXPECT_TRUE(sim::simd_level_compiled(sim::SimdLevel::Scalar));
    EXPECT_TRUE(sim::simd_level_supported(sim::SimdLevel::Scalar));
}

TEST(Cpuid, ActiveLevelIsRunnable)
{
    const sim::SimdLevel level = sim::active_simd_level();
    EXPECT_TRUE(sim::simd_level_compiled(level));
    EXPECT_TRUE(sim::simd_level_supported(level));
}

TEST(Cpuid, ForceAndResetRoundTrip)
{
    // Scalar is runnable everywhere, so forcing it must stick.
    sim::force_simd_level(sim::SimdLevel::Scalar);
    EXPECT_EQ(sim::SimdLevel::Scalar, sim::active_simd_level());

    // Reset re-resolves from the environment; whatever comes back
    // must be runnable on this host.
    sim::reset_simd_level();
    const sim::SimdLevel level = sim::active_simd_level();
    EXPECT_TRUE(sim::simd_level_compiled(level));
    EXPECT_TRUE(sim::simd_level_supported(level));
}

TEST(Cpuid, EveryCompiledAndSupportedLevelCanBeForced)
{
    for (const sim::SimdLevel level :
         {sim::SimdLevel::Scalar, sim::SimdLevel::Sse42,
          sim::SimdLevel::Neon, sim::SimdLevel::Avx2,
          sim::SimdLevel::Avx512, sim::SimdLevel::Avx512Vnni,
          sim::SimdLevel::AmxInt8}) {
        if (!sim::simd_level_compiled(level)
            || !sim::simd_level_supported(level))
            continue;
        sim::force_simd_level(level);
        EXPECT_EQ(level, sim::active_simd_level());
    }
    sim::reset_simd_level();
}

TEST(CpuidDeath, ForcingAnUncompiledLevelIsFatal)
{
    // One of NEON / AVX2 is never compiled in: a binary targets x86
    // or ARM, not both. Forcing the missing one must die loudly
    // rather than silently fall back.
    const sim::SimdLevel missing =
        sim::simd_level_compiled(sim::SimdLevel::Avx2)
            ? sim::SimdLevel::Neon
            : sim::SimdLevel::Avx2;
    ASSERT_FALSE(sim::simd_level_compiled(missing));
    EXPECT_DEATH(sim::force_simd_level(missing),
                 "not built with kernels");
}

TEST(Cpuid, ForceScalarEnvironmentWinsOverIsaRequest)
{
    ASSERT_EQ(0, setenv("BFREE_FORCE_SCALAR", "1", 1));
    ASSERT_EQ(0, setenv("BFREE_FORCE_ISA",
                        sim::simd_level_name(sim::active_simd_level()),
                        1));
    sim::reset_simd_level();
    EXPECT_EQ(sim::SimdLevel::Scalar, sim::active_simd_level());

    // "0" and empty both mean "not forced".
    ASSERT_EQ(0, setenv("BFREE_FORCE_SCALAR", "0", 1));
    ASSERT_EQ(0, unsetenv("BFREE_FORCE_ISA"));
    sim::reset_simd_level();
    const sim::SimdLevel level = sim::active_simd_level();
    EXPECT_TRUE(sim::simd_level_supported(level));
    ASSERT_EQ(0, unsetenv("BFREE_FORCE_SCALAR"));
    sim::reset_simd_level();
}

TEST(CpuidDeath, Avx512IsRunnableOrRejected)
{
    // This must hold on every host, with or without AVX-512: either
    // the trio is supported and the level can be forced, or forcing
    // it dies loudly — never a silent fallback.
    if (sim::simd_level_compiled(sim::SimdLevel::Avx512)
        && sim::simd_level_supported(sim::SimdLevel::Avx512)) {
        sim::force_simd_level(sim::SimdLevel::Avx512);
        EXPECT_EQ(sim::SimdLevel::Avx512, sim::active_simd_level());
        sim::reset_simd_level();
    } else {
        EXPECT_DEATH(sim::force_simd_level(sim::SimdLevel::Avx512),
                     "not built with kernels|does not support");
    }
}

TEST(CpuidDeath, ForceIsaAvx512ResolvesOrDies)
{
    // BFREE_FORCE_ISA=avx512 — the knob the simd-differential CI job
    // sets — must behave identically to the programmatic force.
    ASSERT_EQ(0, setenv("BFREE_FORCE_ISA", "avx512", 1));
    if (sim::simd_level_compiled(sim::SimdLevel::Avx512)
        && sim::simd_level_supported(sim::SimdLevel::Avx512)) {
        sim::reset_simd_level();
        EXPECT_EQ(sim::SimdLevel::Avx512, sim::active_simd_level());
    } else {
        EXPECT_DEATH(
            {
                sim::reset_simd_level();
                (void)sim::active_simd_level();
            },
            "not built with kernels|does not support");
    }
    ASSERT_EQ(0, unsetenv("BFREE_FORCE_ISA"));
    sim::reset_simd_level();
}

TEST(Cpuid, WidestPickIsAvx512VnniOnAVnniCpu)
{
    // With no override, a CPU with VNNI dispatches the vpdpbusd GEMM
    // core, or the tdpbssd one where AMX-INT8 and the process's tile
    // grant are there too; one without VNNI never reports the level as
    // supported.
    ASSERT_EQ(0, unsetenv("BFREE_FORCE_SCALAR"));
    ASSERT_EQ(0, unsetenv("BFREE_FORCE_ISA"));
    sim::reset_simd_level();
    const bool vnni =
        sim::simd_level_compiled(sim::SimdLevel::Avx512Vnni)
        && sim::simd_level_supported(sim::SimdLevel::Avx512Vnni);
    const bool amx = sim::simd_level_compiled(sim::SimdLevel::AmxInt8)
                     && sim::simd_level_supported(sim::SimdLevel::AmxInt8);
    if (amx) {
        EXPECT_EQ(sim::SimdLevel::AmxInt8, sim::active_simd_level());
        // AMX implies the VNNI level whose kernels it also runs.
        EXPECT_TRUE(vnni);
    } else if (vnni) {
        EXPECT_EQ(sim::SimdLevel::Avx512Vnni, sim::active_simd_level());
        // VNNI implies the AVX-512 trio its kernels also use.
        EXPECT_TRUE(sim::simd_level_supported(sim::SimdLevel::Avx512));
    } else {
        EXPECT_NE(sim::SimdLevel::Avx512Vnni, sim::active_simd_level());
    }
}

TEST(CpuidDeath, ForcingAmxWithoutAmxIsFatal)
{
    // The same contract for the tdpbssd level: it runs where the CPU
    // has AMX-INT8 and the process got its tile grant, and dies loudly
    // everywhere else.
    ASSERT_EQ(0, setenv("BFREE_FORCE_ISA", "amx", 1));
    if (sim::simd_level_compiled(sim::SimdLevel::AmxInt8)
        && sim::simd_level_supported(sim::SimdLevel::AmxInt8)) {
        sim::force_simd_level(sim::SimdLevel::AmxInt8);
        EXPECT_EQ(sim::SimdLevel::AmxInt8, sim::active_simd_level());
        sim::reset_simd_level();
        EXPECT_EQ(sim::SimdLevel::AmxInt8, sim::active_simd_level());
    } else {
        EXPECT_DEATH(sim::force_simd_level(sim::SimdLevel::AmxInt8),
                     "not built with kernels|does not support");
        EXPECT_DEATH(
            {
                sim::reset_simd_level();
                (void)sim::active_simd_level();
            },
            "not built with kernels|does not support");
    }
    ASSERT_EQ(0, unsetenv("BFREE_FORCE_ISA"));
    sim::reset_simd_level();
}

TEST(CpuidDeath, ForcingAvx512VnniWithoutVnniIsFatal)
{
    // Programmatic and BFREE_FORCE_ISA forcing agree: the level runs
    // where the CPU has VNNI and dies loudly everywhere else.
    ASSERT_EQ(0, setenv("BFREE_FORCE_ISA", "avx512vnni", 1));
    if (sim::simd_level_compiled(sim::SimdLevel::Avx512Vnni)
        && sim::simd_level_supported(sim::SimdLevel::Avx512Vnni)) {
        sim::force_simd_level(sim::SimdLevel::Avx512Vnni);
        EXPECT_EQ(sim::SimdLevel::Avx512Vnni, sim::active_simd_level());
        sim::reset_simd_level();
        EXPECT_EQ(sim::SimdLevel::Avx512Vnni, sim::active_simd_level());
    } else {
        EXPECT_DEATH(sim::force_simd_level(sim::SimdLevel::Avx512Vnni),
                     "not built with kernels|does not support");
        EXPECT_DEATH(
            {
                sim::reset_simd_level();
                (void)sim::active_simd_level();
            },
            "not built with kernels|does not support");
    }
    ASSERT_EQ(0, unsetenv("BFREE_FORCE_ISA"));
    sim::reset_simd_level();
}

TEST(Cpuid, ForceIsaEnvironmentSelectsThatLevel)
{
    ASSERT_EQ(0, setenv("BFREE_FORCE_ISA", "scalar", 1));
    sim::reset_simd_level();
    EXPECT_EQ(sim::SimdLevel::Scalar, sim::active_simd_level());
    ASSERT_EQ(0, unsetenv("BFREE_FORCE_ISA"));
    sim::reset_simd_level();
}

TEST(CpuidDeath, UnknownForceIsaNameIsFatal)
{
    ASSERT_EQ(0, setenv("BFREE_FORCE_ISA", "avx1024", 1));
    EXPECT_DEATH(
        {
            sim::reset_simd_level();
            (void)sim::active_simd_level();
        },
        "not a known ISA.*avx512vnni");
    ASSERT_EQ(0, unsetenv("BFREE_FORCE_ISA"));
    sim::reset_simd_level();
}

} // namespace
