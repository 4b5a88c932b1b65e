#include "varade/nn/packed.hpp"

#include <algorithm>

namespace varade::nn {

namespace {

Index round_up_lanes(Index n) {
  return (n + PackedHalvingNet::kLanes - 1) / PackedHalvingNet::kLanes *
         PackedHalvingNet::kLanes;
}

}  // namespace

PackedHalvingNet::PackedHalvingNet(Index window, const std::vector<const Conv1d*>& convs,
                                   const std::vector<const Linear*>& heads)
    : window_(window) {
  check(!convs.empty(), "PackedHalvingNet needs at least one convolution");
  Index length = window;
  Index channels = convs.front()->in_channels();
  for (const Conv1d* conv : convs) {
    check(conv->kernel_size() == 2 && conv->stride() == 2 && conv->padding() == 0,
          "PackedHalvingNet packs kernel-2 / stride-2 / unpadded convolutions only");
    check(conv->in_channels() == channels, "PackedHalvingNet: convolution channels do not chain");
    check(length % 4 == 0, "PackedHalvingNet: window must halve to exactly 2");
    Layer layer;
    layer.in_channels = channels;
    layer.out_channels = conv->out_channels();
    layer.width = round_up_lanes(layer.out_channels);
    layer.l_out = length / 2;
    layer.taps.assign(static_cast<std::size_t>(layer.in_channels * 2 * layer.width), 0.0);
    layer.bias.assign(static_cast<std::size_t>(layer.width), 0.0F);
    const float* w = conv->weight().value.data();  // [out, in, 2]
    const float* b = conv->bias().value.data();
    for (Index co = 0; co < layer.out_channels; ++co) {
      layer.bias[static_cast<std::size_t>(co)] = b[co];
      for (Index ci = 0; ci < layer.in_channels; ++ci)
        for (Index k = 0; k < 2; ++k)
          layer.taps[static_cast<std::size_t>((ci * 2 + k) * layer.width + co)] =
              w[(co * layer.in_channels + ci) * 2 + k];
    }
    max_activation_ = std::max(max_activation_, layer.l_out * layer.width);
    length = layer.l_out;
    channels = layer.out_channels;
    layers_.push_back(std::move(layer));
  }
  check(length == 2, "PackedHalvingNet: window must halve to exactly 2");

  const Index features = channels * 2;
  for (const Linear* linear : heads) {
    check(linear->in_features() == features,
          "PackedHalvingNet: head does not read the flattened trunk output");
    Head head;
    head.out = linear->out_features();
    head.width = round_up_lanes(head.out);
    head.weight.assign(static_cast<std::size_t>(features * head.width), 0.0);
    head.bias.assign(static_cast<std::size_t>(head.width), 0.0);
    const float* w = linear->weight().value.data();  // [out, features]
    const float* b = linear->bias().value.data();
    for (Index o = 0; o < head.out; ++o) {
      head.bias[static_cast<std::size_t>(o)] = b[o];
      for (Index f = 0; f < features; ++f)
        head.weight[static_cast<std::size_t>(f * head.width + o)] = w[o * features + f];
    }
    heads_.push_back(std::move(head));
  }
}

void PackedHalvingNet::forward(const float* x, Index rows, float* const* outs,
                               const KernelTable& kernels) const {
  thread_local std::vector<double> scratch;
  const auto need = static_cast<std::size_t>(scratch_doubles());
  if (scratch.size() < need) scratch.resize(need);
  kernels.halving_net(*this, x, rows, outs, scratch.data());
}

}  // namespace varade::nn
