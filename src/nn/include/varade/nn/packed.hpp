// Packed inference form of a halving convolution cascade (VARADE's trunk).
//
// The network: Conv1d layers with kernel 2, stride 2 and no padding, each
// followed by a ReLU, halving the time dimension from `window` down to 2;
// the last activation is flattened channel-major ([C, 2] -> C * 2 features)
// and read by one or more Linear heads.
//
// Packing widens every weight to double once and lays each layer out so the
// kernel vectorises across output channels: conv taps as [ci][k][co] and
// head weights as [feature][o], both zero-padded to a multiple of kLanes
// output lanes. Activations live time-major ([t][co]) in per-thread scratch,
// widened to double (exactly) so no layer converts its inputs; the ReLU is
// fused into the convolution and no Tensor is allocated per call.
//
// Every output keeps the module path's arithmetic exactly: a conv element is
// its float bias plus, in ascending input channel, the float-rounded double
// (0.0 + w0 * x0) + w1 * x1; a head element is its bias plus the ascending
// feature sum of w * x, accumulated in double. So forward() is bit-identical
// to Sequential::forward followed by Linear::forward (pinned by
// test_varade_parity on every kernel set).
#pragma once

#include <vector>

#include "varade/nn/kernels.hpp"
#include "varade/nn/layers.hpp"

namespace varade::nn {

class PackedHalvingNet {
 public:
  /// Output lanes per vector block; packed widths are multiples of it.
  static constexpr Index kLanes = 8;

  struct Layer {
    Index in_channels = 0;
    Index out_channels = 0;
    Index width = 0;   // out_channels rounded up to kLanes
    Index l_out = 0;   // output time steps (always even, >= 2)
    std::vector<double> taps;  // [in_channels][2][width]
    std::vector<float> bias;   // [width]
  };

  struct Head {
    Index out = 0;
    Index width = 0;              // out rounded up to kLanes
    std::vector<double> weight;   // [in_features][width], feature = c * 2 + t
    std::vector<double> bias;     // [width]
  };

  /// Packs `convs` (each k2/s2/p0, channel counts chained, halving `window`
  /// to exactly 2) and `heads` (each reading the flattened last activation).
  /// Copies the weights: later changes to the modules do not reach the plan.
  PackedHalvingNet(Index window, const std::vector<const Conv1d*>& convs,
                   const std::vector<const Linear*>& heads);

  /// x: `rows` contiguous channel-major [in_channels(), window()] rows. Head
  /// h writes [rows, heads()[h].out] floats to outs[h]; a null outs[h] skips
  /// that head. outs holds one pointer per head.
  void forward(const float* x, Index rows, float* const* outs,
               const KernelTable& kernels = nn::kernels()) const;

  Index in_channels() const { return layers_.front().in_channels; }
  Index window() const { return window_; }
  const std::vector<Layer>& layers() const { return layers_; }
  const std::vector<Head>& heads() const { return heads_; }
  /// Per-thread activation scratch a kernel needs, in doubles: two
  /// ping-pong buffers, each as large as the largest packed layer output.
  Index scratch_doubles() const { return 2 * max_activation_; }

 private:
  Index window_;
  std::vector<Layer> layers_;
  std::vector<Head> heads_;
  Index max_activation_ = 0;
};

}  // namespace varade::nn
