/**
 * @file
 * The static verifier at the accelerator surface: lint reports an
 * unsupported precision without running anything, and the layers the
 * tiered engine runs as blocked GEMM-over-LUT compile to kernels the
 * verifier accepts.
 */

#include <gtest/gtest.h>

#include "core/bfree.hh"
#include "dnn/model_zoo.hh"
#include "map/kernel_compiler.hh"
#include "verify/kernel_verifier.hh"

using namespace bfree;
using namespace bfree::verify;

TEST(TieredVerify, LintReportsUnsupportedPrecision)
{
    dnn::Network bad("bad", {64, 1, 1});
    dnn::Layer layer = dnn::make_fc("fc", 64, 64);
    layer.precisionBits = 3; // not expressible by nibble decomposition
    bad.add(layer);

    const VerifyReport report = core::BFreeAccelerator().lint(bad);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(RuleId::OpPrecision)) << report.toString();
}

TEST(TieredVerify, BatchedKernelCompilePathVerifiesClean)
{
    // The layers functional execution now runs as blocked GEMM-over-LUT
    // (conv via im2col spans, FC/attention via matmulTile) still
    // compile to kernels the static verifier accepts.
    const tech::CacheGeometry geom{};
    const map::KernelCompiler compiler(geom);
    const KernelVerifier verifier(geom);

    const dnn::Network net = dnn::make_tiny_cnn();
    for (const dnn::Layer &layer : net.layers()) {
        const map::CompiledKernel k = compiler.compile(layer);
        EXPECT_TRUE(k.diagnostics.ok())
            << layer.name << "\n" << k.diagnostics.toString();
        const VerifyReport report = verifier.verify(k, layer);
        EXPECT_TRUE(report.ok())
            << layer.name << "\n" << report.toString();
    }
}
