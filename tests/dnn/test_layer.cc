/**
 * @file
 * Layer descriptors: shapes, MACs, parameters.
 */

#include <gtest/gtest.h>

#include "dnn/layer.hh"

using namespace bfree::dnn;

TEST(ConvLayer, OutputShapeWithPadding)
{
    const Layer l = make_conv("c", {3, 32, 32}, 16, 3, 1, 1);
    const FeatureShape out = l.outputShape();
    EXPECT_EQ(out.c, 16u);
    EXPECT_EQ(out.h, 32u);
    EXPECT_EQ(out.w, 32u);
}

TEST(ConvLayer, OutputShapeStrided)
{
    const Layer l = make_conv("c", {3, 224, 224}, 64, 7, 2, 3);
    const FeatureShape out = l.outputShape();
    EXPECT_EQ(out.h, 112u);
    EXPECT_EQ(out.w, 112u);
}

TEST(ConvLayer, MacsAndParamsHandComputed)
{
    // 3x3 conv, 3 -> 16 channels, 32x32 output:
    // macs = 32*32*16*3*3*3 = 442368; params = 16*3*3*3 + 16 = 448.
    const Layer l = make_conv("c", {3, 32, 32}, 16, 3, 1, 1);
    EXPECT_EQ(l.macs(), 442368u);
    EXPECT_EQ(l.params(), 448u);
}

TEST(ConvLayer, AsymmetricKernels)
{
    // Inception's 1x7 factorization.
    const Layer l = make_conv2("c", {192, 17, 17}, 192, 1, 7, 1, 0, 3);
    const FeatureShape out = l.outputShape();
    EXPECT_EQ(out.h, 17u);
    EXPECT_EQ(out.w, 17u);
    EXPECT_EQ(l.params(), 192u * 192 * 7 + 192);
}

TEST(FcLayer, MacsParamsShape)
{
    const Layer l = make_fc("fc", 4096, 1000);
    EXPECT_EQ(l.macs(), 4096u * 1000);
    EXPECT_EQ(l.params(), 4096u * 1000 + 1000);
    EXPECT_EQ(l.outputShape().c, 1000u);
}

TEST(FcLayer, RowBatchingScalesMacsNotParams)
{
    Layer l = make_fc("ff", 768, 3072);
    l.fcRows = 128;
    EXPECT_EQ(l.macs(), 128ull * 768 * 3072);
    EXPECT_EQ(l.params(), 768ull * 3072 + 3072);
    EXPECT_EQ(l.inputBytes(), 128ull * 768);
    EXPECT_EQ(l.outputBytes(), 128ull * 3072);
}

TEST(PoolLayer, ShapesAndNoMacs)
{
    const Layer l =
        make_pool("p", LayerKind::MaxPool, {64, 112, 112}, 2, 2);
    const FeatureShape out = l.outputShape();
    EXPECT_EQ(out.c, 64u);
    EXPECT_EQ(out.h, 56u);
    EXPECT_EQ(l.macs(), 0u);
    EXPECT_GT(l.specialOps(), 0u);
    EXPECT_FALSE(l.isComputeLayer());
}

TEST(LstmLayer, FourGates)
{
    const Layer l = make_lstm_cell("cell", 39, 1024);
    EXPECT_EQ(l.macs(), 4ull * (39 + 1024) * 1024);
    EXPECT_EQ(l.params(), 4ull * (39 + 1024) * 1024 + 4ull * 1024);
    EXPECT_EQ(l.outputShape().c, 1024u);
}

TEST(AttentionLayer, ProjectionsAndScores)
{
    const Layer l = make_attention("attn", 128, 768, 12);
    // 4 s d^2 + 2 s^2 d.
    EXPECT_EQ(l.macs(),
              4ull * 128 * 768 * 768 + 2ull * 128 * 128 * 768);
    EXPECT_EQ(l.params(), 4ull * 768 * 768 + 4ull * 768);
}

TEST(ActivationLayers, PassThroughShapes)
{
    const Layer relu =
        make_activation("r", LayerKind::Relu, {64, 10, 10});
    EXPECT_EQ(relu.outputShape(), (FeatureShape{64, 10, 10}));
    EXPECT_EQ(relu.macs(), 0u);
    EXPECT_EQ(relu.specialOps(), 6400u);

    const Layer sm =
        make_activation("s", LayerKind::Softmax, {1000, 1, 1});
    EXPECT_EQ(sm.specialOps(), 2000u); // exp + divide per element
}

TEST(WeightBytes, FourBitHalvesStorage)
{
    Layer l = make_fc("fc", 256, 256);
    l.precisionBits = 8;
    const auto b8 = l.weightBytes();
    l.precisionBits = 4;
    EXPECT_EQ(l.weightBytes(), b8 / 2);
}

TEST(LayerKindNames, Stable)
{
    EXPECT_STREQ(layer_kind_name(LayerKind::Conv), "conv");
    EXPECT_STREQ(layer_kind_name(LayerKind::Attention), "attention");
    EXPECT_STREQ(layer_kind_name(LayerKind::LstmCell), "lstm");
}

TEST(LayerDeath, KernelLargerThanInputIsFatal)
{
    const Layer l = make_conv("bad", {3, 2, 2}, 8, 5, 1, 0);
    EXPECT_DEATH((void)l.outputShape(), "larger than");
}

TEST(LayerDeath, ZeroStrideIsFatalAtConstruction)
{
    // A zero stride used to reach conv_out_dim's division (SIGFPE).
    EXPECT_DEATH((void)make_pool("p", LayerKind::MaxPool, {1, 4, 4}, 2, 0,
                                 0),
                 "stride 0");
    EXPECT_DEATH((void)make_conv("c", {1, 4, 4}, 2, 3, 0, 1), "stride 0");
    EXPECT_DEATH((void)make_conv2("c", {1, 4, 4}, 2, 3, 3, 0, 1, 1),
                 "stride 0");
}

TEST(LayerDeath, ZeroKernelIsFatalAtConstruction)
{
    EXPECT_DEATH((void)make_pool("p", LayerKind::AvgPool, {1, 4, 4}, 0, 1,
                                 0),
                 "kernel 0");
    EXPECT_DEATH((void)make_conv2("c", {1, 4, 4}, 2, 0, 3, 1, 0, 0),
                 "kernel 0x3");
    EXPECT_DEATH((void)make_conv2("c", {1, 4, 4}, 2, 3, 0, 1, 0, 0),
                 "kernel 3x0");
}

TEST(LayerDeath, PoolPadOfAWholeKernelIsFatal)
{
    // pad >= kernel builds an all-padding edge window, which used to
    // abort mid-run in the max/avg reduction.
    EXPECT_DEATH((void)make_pool("p", LayerKind::MaxPool, {1, 4, 4}, 2, 2,
                                 2),
                 "pad 2 must be smaller than the kernel 2");
    EXPECT_DEATH((void)make_pool("p", LayerKind::AvgPool, {1, 4, 4}, 3, 1,
                                 5),
                 "pad 5");
    // One short of the kernel still leaves an input tap per window.
    EXPECT_EQ(make_pool("p", LayerKind::MaxPool, {1, 4, 4}, 3, 1, 2)
                  .outputShape()
                  .h,
              6u);
}
