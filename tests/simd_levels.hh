/**
 * @file
 * Test helper: run a body once per SIMD level this binary carries and
 * this CPU can execute, with the dispatchers pinned to it.
 */

#ifndef BFREE_TESTS_SIMD_LEVELS_HH
#define BFREE_TESTS_SIMD_LEVELS_HH

#include <gtest/gtest.h>

#include "sim/cpuid.hh"

namespace bfree::test {

/** Run @p body(level) per runnable SIMD level; restores the resolved
 *  level afterwards. Failures carry the level's name. */
template <typename Body>
void
for_each_runnable_level(Body &&body)
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
        SCOPED_TRACE(sim::simd_level_name(level));
        body(level);
    }
    sim::reset_simd_level();
}

} // namespace bfree::test

#endif // BFREE_TESTS_SIMD_LEVELS_HH
