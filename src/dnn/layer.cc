#include "layer.hh"

#include "sim/logging.hh"

namespace bfree::dnn {

const char *
layer_kind_name(LayerKind kind)
{
    switch (kind) {
      case LayerKind::Conv:
        return "conv";
      case LayerKind::Fc:
        return "fc";
      case LayerKind::MaxPool:
        return "maxpool";
      case LayerKind::AvgPool:
        return "avgpool";
      case LayerKind::Relu:
        return "relu";
      case LayerKind::Sigmoid:
        return "sigmoid";
      case LayerKind::Tanh:
        return "tanh";
      case LayerKind::Softmax:
        return "softmax";
      case LayerKind::LstmCell:
        return "lstm";
      case LayerKind::Attention:
        return "attention";
      case LayerKind::LayerNorm:
        return "layernorm";
      case LayerKind::EwAdd:
        return "ewadd";
    }
    return "?";
}

namespace {

unsigned
conv_out_dim(unsigned in, unsigned kernel, unsigned stride, unsigned pad)
{
    const unsigned padded = in + 2 * pad;
    if (padded < kernel)
        bfree_fatal("kernel ", kernel, " larger than padded input ",
                    padded);
    return (padded - kernel) / stride + 1;
}

} // namespace

FeatureShape
Layer::outputShape() const
{
    switch (kind) {
      case LayerKind::Conv:
        return {outChannels,
                conv_out_dim(input.h, kernelH, strideH, padH),
                conv_out_dim(input.w, kernelW, strideW, padW)};
      case LayerKind::MaxPool:
      case LayerKind::AvgPool:
        return {input.c, conv_out_dim(input.h, kernelH, strideH, padH),
                conv_out_dim(input.w, kernelW, strideW, padW)};
      case LayerKind::Fc:
        return {outFeatures, 1, 1};
      case LayerKind::LstmCell:
        return {lstmHidden, 1, 1};
      case LayerKind::Attention:
      case LayerKind::LayerNorm:
        return {dModel, seqLen, 1};
      case LayerKind::Relu:
      case LayerKind::Sigmoid:
      case LayerKind::Tanh:
      case LayerKind::Softmax:
      case LayerKind::EwAdd:
        return input;
    }
    return input;
}

std::uint64_t
Layer::macs() const
{
    switch (kind) {
      case LayerKind::Conv: {
        const FeatureShape out = outputShape();
        return std::uint64_t(out.h) * out.w * out.c * input.c * kernelH
               * kernelW;
      }
      case LayerKind::Fc:
        return std::uint64_t(fcRows) * inFeatures * outFeatures;
      case LayerKind::LstmCell:
        // Four gates, each (input + recurrent) matvec.
        return 4ULL * (std::uint64_t(lstmInput) + lstmHidden)
               * lstmHidden;
      case LayerKind::Attention: {
        // Q, K, V and output projections plus the two seq x seq
        // score/context products.
        const std::uint64_t d = dModel;
        const std::uint64_t s = seqLen;
        return 4 * s * d * d + 2 * s * s * d;
      }
      default:
        return 0;
    }
}

std::uint64_t
Layer::params() const
{
    switch (kind) {
      case LayerKind::Conv:
        return std::uint64_t(outChannels) * input.c * kernelH * kernelW
               + outChannels; // + bias
      case LayerKind::Fc:
        return std::uint64_t(inFeatures) * outFeatures + outFeatures;
      case LayerKind::LstmCell:
        return 4ULL
                   * ((std::uint64_t(lstmInput) + lstmHidden) * lstmHidden)
               + 4ULL * lstmHidden;
      case LayerKind::Attention:
        return 4ULL * dModel * dModel + 4ULL * dModel;
      case LayerKind::LayerNorm:
        return 2ULL * dModel;
      default:
        return 0;
    }
}

std::uint64_t
Layer::weightBytes() const
{
    // 4-bit weights pack two to a byte.
    return params() * precisionBits / 8;
}

std::uint64_t
Layer::inputBytes() const
{
    switch (kind) {
      case LayerKind::Fc:
        return std::uint64_t(fcRows) * inFeatures;
      case LayerKind::LstmCell:
        return lstmInput + lstmHidden;
      case LayerKind::Attention:
      case LayerKind::LayerNorm:
        return std::uint64_t(seqLen) * dModel;
      default:
        return input.elements();
    }
}

std::uint64_t
Layer::outputBytes() const
{
    if (kind == LayerKind::Fc)
        return std::uint64_t(fcRows) * outFeatures;
    return outputShape().elements();
}

std::uint64_t
Layer::specialOps() const
{
    switch (kind) {
      case LayerKind::Relu:
      case LayerKind::Sigmoid:
      case LayerKind::Tanh:
        return input.elements();
      case LayerKind::Softmax:
        return 2 * input.elements(); // exp + divide per element
      case LayerKind::MaxPool:
      case LayerKind::AvgPool: {
        const FeatureShape out = outputShape();
        return out.elements() * kernelH * kernelW;
      }
      case LayerKind::LstmCell:
        return 5ULL * lstmHidden; // 3 sigmoid + 2 tanh evaluations
      case LayerKind::Attention:
        return 2ULL * seqLen * seqLen; // softmax over score rows
      case LayerKind::LayerNorm:
        return 3ULL * std::uint64_t(seqLen) * dModel;
      case LayerKind::EwAdd:
        return input.elements();
      default:
        return 0;
    }
}

bool
Layer::isComputeLayer() const
{
    return macs() > 0;
}

// ----------------------------------------------------------------------
// Factories
// ----------------------------------------------------------------------
Layer
make_conv(std::string name, FeatureShape input, unsigned out_c,
          unsigned kernel, unsigned stride, unsigned pad)
{
    return make_conv2(std::move(name), input, out_c, kernel, kernel,
                      stride, pad, pad);
}

Layer
make_conv2(std::string name, FeatureShape input, unsigned out_c,
           unsigned kernel_h, unsigned kernel_w, unsigned stride,
           unsigned pad_h, unsigned pad_w)
{
    if (kernel_h == 0 || kernel_w == 0 || stride == 0)
        bfree_fatal("conv '", name, "': kernel ", kernel_h, "x",
                    kernel_w, " and stride ", stride,
                    " must all be non-zero");
    Layer l;
    l.kind = LayerKind::Conv;
    l.name = std::move(name);
    l.input = input;
    l.outChannels = out_c;
    l.kernelH = kernel_h;
    l.kernelW = kernel_w;
    l.strideH = stride;
    l.strideW = stride;
    l.padH = pad_h;
    l.padW = pad_w;
    return l;
}

Layer
make_fc(std::string name, unsigned in_features, unsigned out_features)
{
    Layer l;
    l.kind = LayerKind::Fc;
    l.name = std::move(name);
    l.input = {in_features, 1, 1};
    l.inFeatures = in_features;
    l.outFeatures = out_features;
    return l;
}

Layer
make_pool(std::string name, LayerKind kind, FeatureShape input,
          unsigned kernel, unsigned stride, unsigned pad)
{
    if (kind != LayerKind::MaxPool && kind != LayerKind::AvgPool)
        bfree_fatal("make_pool requires a pooling kind");
    if (kernel == 0 || stride == 0)
        bfree_fatal("pool '", name, "': kernel ", kernel, " and stride ",
                    stride, " must both be non-zero");
    // A pad of a whole kernel makes an edge window all padding, with
    // no input element to reduce.
    if (pad >= kernel)
        bfree_fatal("pool '", name, "': pad ", pad,
                    " must be smaller than the kernel ", kernel);
    Layer l;
    l.kind = kind;
    l.name = std::move(name);
    l.input = input;
    l.kernelH = kernel;
    l.kernelW = kernel;
    l.strideH = stride;
    l.strideW = stride;
    l.padH = pad;
    l.padW = pad;
    return l;
}

Layer
make_activation(std::string name, LayerKind kind, FeatureShape input)
{
    if (kind != LayerKind::Relu && kind != LayerKind::Sigmoid
        && kind != LayerKind::Tanh && kind != LayerKind::Softmax)
        bfree_fatal("make_activation requires an activation kind");
    Layer l;
    l.kind = kind;
    l.name = std::move(name);
    l.input = input;
    return l;
}

Layer
make_lstm_cell(std::string name, unsigned input_size,
               unsigned hidden_size)
{
    Layer l;
    l.kind = LayerKind::LstmCell;
    l.name = std::move(name);
    l.input = {input_size + hidden_size, 1, 1};
    l.lstmInput = input_size;
    l.lstmHidden = hidden_size;
    return l;
}

Layer
make_attention(std::string name, unsigned seq_len, unsigned d_model,
               unsigned num_heads)
{
    Layer l;
    l.kind = LayerKind::Attention;
    l.name = std::move(name);
    l.input = {d_model, seq_len, 1};
    l.seqLen = seq_len;
    l.dModel = d_model;
    l.numHeads = num_heads;
    return l;
}

Layer
make_layer_norm(std::string name, unsigned seq_len, unsigned d_model)
{
    Layer l;
    l.kind = LayerKind::LayerNorm;
    l.name = std::move(name);
    l.input = {d_model, seq_len, 1};
    l.seqLen = seq_len;
    l.dModel = d_model;
    return l;
}

Layer
make_ew_add(std::string name, FeatureShape input)
{
    Layer l;
    l.kind = LayerKind::EwAdd;
    l.name = std::move(name);
    l.input = input;
    return l;
}

} // namespace bfree::dnn
