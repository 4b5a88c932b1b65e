#include "varade/nn/kernels.hpp"

#include <utility>

#include "varade/nn/packed.hpp"

namespace varade::nn {

namespace {

#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target)
#define VARADE_CONV_MULTIARCH 1
#endif
#endif

/// Interior output steps of a Conv1d inference forward: every window is
/// fully in bounds (t in [t_lo, t_hi)), so the accumulation runs k-major
/// over blocks of output steps — each lane keeps its own double accumulator
/// fed in ascending-k order, which is exactly the scalar reference's
/// per-element order, just unrolled across independent outputs so the
/// compiler can vectorise. `py` rows must already hold the bias.
#define VARADE_CONV_INLINE inline __attribute__((always_inline))

/// One output-channel row of interior steps for compile-time kernel size K
/// and stride S (the model hot paths: the residual-block k3/s1 convolutions
/// and VARADE's halving k2/s2 trunk). Full 8-wide blocks run with
/// compile-time loop bounds, so the y-block and the per-lane double
/// accumulators live in registers and the K loop fully unrolls; the ragged
/// tail keeps the scalar reference loop. always_inline: the body must be
/// inlined into the multiversioned caller so the AVX2 clone compiles it
/// with AVX2 (an out-of-line copy would be baseline ISA).
template <Index K, Index S>
VARADE_CONV_INLINE void conv1d_interior_row_ks(const float* xb, const float* wc, float* yc,
                                               Index in_ch, Index l_in, Index padding,
                                               Index t_lo, Index t_hi) {
  constexpr Index kBlock = 8;
  Index t0 = t_lo;
  for (; t0 + kBlock <= t_hi; t0 += kBlock) {
    float yv[kBlock];
    for (Index j = 0; j < kBlock; ++j) yv[j] = yc[t0 + j];
    for (Index ci = 0; ci < in_ch; ++ci) {
      const float* xrow = xb + ci * l_in + t0 * S - padding;
      const float* wk = wc + ci * K;
      double acc[kBlock];
      for (Index j = 0; j < kBlock; ++j) acc[j] = 0.0;
      for (Index k = 0; k < K; ++k) {
        const float* xk = xrow + k;
        const double wv = static_cast<double>(wk[k]);
        for (Index j = 0; j < kBlock; ++j) acc[j] += wv * xk[j * S];
      }
      for (Index j = 0; j < kBlock; ++j) yv[j] += static_cast<float>(acc[j]);
    }
    for (Index j = 0; j < kBlock; ++j) yc[t0 + j] = yv[j];
  }
  for (Index t = t0; t < t_hi; ++t) {
    for (Index ci = 0; ci < in_ch; ++ci) {
      const float* xrow = xb + ci * l_in + t * S - padding;
      const float* wk = wc + ci * K;
      double acc = 0.0;
      for (Index k = 0; k < K; ++k) acc += static_cast<double>(wk[k]) * xrow[k];
      yc[t] += static_cast<float>(acc);
    }
  }
}

/// Generic interior fallback (any kernel/stride): the scalar reference loop
/// minus the bounds checks. Kept deliberately simple — blocked variants
/// with runtime strides measured slower than this on the odd geometries.
VARADE_CONV_INLINE void conv1d_interior_row(const float* xb, const float* wc, float* yc,
                                            Index in_ch, Index l_in, Index kernel,
                                            Index stride, Index padding, Index t_lo,
                                            Index t_hi) {
  for (Index ci = 0; ci < in_ch; ++ci) {
    const float* xc = xb + ci * l_in;
    const float* wk = wc + ci * kernel;
    for (Index t = t_lo; t < t_hi; ++t) {
      const float* xrow = xc + t * stride - padding;
      double acc = 0.0;
      for (Index k = 0; k < kernel; ++k) acc += static_cast<double>(wk[k]) * xrow[k];
      yc[t] += static_cast<float>(acc);
    }
  }
}

VARADE_CONV_INLINE void conv1d_interior_impl(const float* px, const float* pw, float* py,
                                             Index n, Index in_ch, Index out_ch, Index l_in,
                                             Index l_out, Index kernel, Index stride,
                                             Index padding, Index t_lo, Index t_hi) {
  for (Index b = 0; b < n; ++b) {
    const float* xb = px + b * in_ch * l_in;
    float* yb = py + b * out_ch * l_out;
    for (Index co = 0; co < out_ch; ++co) {
      const float* wc = pw + co * in_ch * kernel;
      float* yc = yb + co * l_out;
      if (stride == 1 && kernel == 3) {
        conv1d_interior_row_ks<3, 1>(xb, wc, yc, in_ch, l_in, padding, t_lo, t_hi);
      } else if (stride == 1 && kernel == 2) {
        conv1d_interior_row_ks<2, 1>(xb, wc, yc, in_ch, l_in, padding, t_lo, t_hi);
      } else if (stride == 1 && kernel == 5) {
        conv1d_interior_row_ks<5, 1>(xb, wc, yc, in_ch, l_in, padding, t_lo, t_hi);
      } else if (stride == 2 && kernel == 2) {
        conv1d_interior_row_ks<2, 2>(xb, wc, yc, in_ch, l_in, padding, t_lo, t_hi);
      } else {
        conv1d_interior_row(xb, wc, yc, in_ch, l_in, kernel, stride, padding, t_lo, t_hi);
      }
    }
  }
}

/// Non-overlapping ConvTranspose1d scatter row (stride >= kernel) for
/// compile-time kernel size K and stride S — the AE decoder's k2/s2
/// upsampling layers. Blocks of input steps write disjoint output ranges,
/// so a dense block (all lanes nonzero) can run k-major without branches and
/// vectorise; any block containing a zero falls back to the per-element
/// skip-zero loop so apply()'s observable semantics (no += of 0*w, which
/// could flip a -0.0 or materialise a NaN from a non-finite weight) are
/// preserved exactly. The zero skip matters here: these layers sit behind a
/// ReLU, so exact zeros are common in the decoder input.
template <Index K, Index S>
VARADE_CONV_INLINE void convt1d_row_ks(const float* xc, const float* wk, float* yc,
                                       Index l_in) {
  static_assert(S >= K, "blocked scatter requires non-overlapping outputs");
  constexpr Index kBlock = 8;
  Index t0 = 0;
  for (; t0 + kBlock <= l_in; t0 += kBlock) {
    bool dense = true;
    for (Index j = 0; j < kBlock; ++j) dense &= (xc[t0 + j] != 0.0F);
    if (dense) {
      // Every (t, k) pair hits a distinct output element, so the k-major
      // order below produces bit-identical results to the t-major reference.
      for (Index k = 0; k < K; ++k) {
        const float wv = wk[k];
        for (Index j = 0; j < kBlock; ++j) yc[(t0 + j) * S + k] += xc[t0 + j] * wv;
      }
      continue;
    }
    for (Index j = 0; j < kBlock; ++j) {
      const float xv = xc[t0 + j];
      if (xv == 0.0F) continue;
      float* yp = yc + (t0 + j) * S;
      for (Index k = 0; k < K; ++k) yp[k] += xv * wk[k];
    }
  }
  for (Index t = t0; t < l_in; ++t) {
    const float xv = xc[t];
    if (xv == 0.0F) continue;
    float* yp = yc + t * S;
    for (Index k = 0; k < K; ++k) yp[k] += xv * wk[k];
  }
}

/// Generic scatter row: apply()'s per-element loop for any geometry.
VARADE_CONV_INLINE void convt1d_row(const float* xc, const float* wk, float* yc, Index l_in,
                                    Index kernel, Index stride) {
  for (Index t = 0; t < l_in; ++t) {
    const float xv = xc[t];
    if (xv == 0.0F) continue;
    float* yp = yc + t * stride;
    for (Index k = 0; k < kernel; ++k) yp[k] += xv * wk[k];
  }
}

/// ConvTranspose1d scatter over bias-filled output rows, non-overlapping
/// geometries only (stride >= kernel — the caller keeps overlapping ones on
/// the scalar reference). Loop nest matches apply(): ci outer, so each
/// output element accumulates its per-input-channel contributions in
/// ascending-ci order.
VARADE_CONV_INLINE void convt1d_scatter_impl(const float* px, const float* pw, float* py,
                                             Index n, Index in_ch, Index out_ch, Index l_in,
                                             Index l_out, Index kernel, Index stride) {
  for (Index b = 0; b < n; ++b) {
    const float* xb = px + b * in_ch * l_in;
    float* yb = py + b * out_ch * l_out;
    for (Index ci = 0; ci < in_ch; ++ci) {
      const float* xc = xb + ci * l_in;
      for (Index co = 0; co < out_ch; ++co) {
        const float* wk = pw + (ci * out_ch + co) * kernel;
        float* yc = yb + co * l_out;
        if (kernel == 2 && stride == 2)
          convt1d_row_ks<2, 2>(xc, wk, yc, l_in);
        else
          convt1d_row(xc, wk, yc, l_in, kernel, stride);
      }
    }
  }
}

// Native-width vectors for the packed kernels (GCC/Clang vector
// extensions): W = 4 doubles (one AVX register) in the avx2 set, W = 2 (one
// SSE2 register) in the scalar set. Element-wise operators on them round
// exactly like the scalar expressions they replace. Helpers take
// out-parameters: a function returning a 32-byte vector by value trips
// GCC's -Wpsabi note when compiled without AVX.
template <int W>
struct Lanes;
template <>
struct Lanes<2> {
  using Double = double __attribute__((vector_size(16)));
  using Float = float __attribute__((vector_size(8)));
};
template <>
struct Lanes<4> {
  using Double = double __attribute__((vector_size(32)));
  using Float = float __attribute__((vector_size(16)));
};

template <typename V, typename T>
VARADE_CONV_INLINE void load_lanes(V& v, const T* p) {
  __builtin_memcpy(&v, p, sizeof(V));
}

template <typename V>
VARADE_CONV_INLINE void broadcast_lanes(V& v, double x) {
  double lanes[sizeof(V) / sizeof(double)];
  for (double& lane : lanes) lane = x;
  __builtin_memcpy(&v, lanes, sizeof(V));
}

/// One packed k2/s2 convolution + ReLU over one row, vectorised across
/// output channels. Input element (t, c) sits at x[t * ts + c * cs], so the
/// first layer reads the channel-major float context in place and later
/// layers read the time-major double scratch (activations are stored
/// widened, which is exact, so no layer converts its inputs). Output steps
/// run in pairs (l_out is always even) so each tap load feeds two
/// accumulator blocks; within a block, each lane is one output channel and
/// keeps the module path's order exactly — the float bias, then per
/// ascending input channel the float-rounded double (0.0 + w0 * x0) +
/// w1 * x1.
template <int W, typename In>
VARADE_CONV_INLINE void halving_conv_relu(const PackedHalvingNet::Layer& layer, const In* x,
                                          Index ts, Index cs, double* y) {
  using Double = typename Lanes<W>::Double;
  using Float = typename Lanes<W>::Float;
  constexpr Index kVecs = PackedHalvingNet::kLanes / W;  // vectors per block
  const Index width = layer.width;
  const double* taps = layer.taps.data();
  const float* bias = layer.bias.data();
  Double zero;
  broadcast_lanes(zero, 0.0);
  for (Index t = 0; t < layer.l_out; t += 2) {
    const In* xt = x + 2 * t * ts;
    double* y0 = y + t * width;
    double* y1 = y0 + width;
    for (Index cb = 0; cb < width; cb += PackedHalvingNet::kLanes) {
      Float acc0[kVecs];  // output t
      Float acc1[kVecs];  // output t + 1
      for (Index v = 0; v < kVecs; ++v) {
        load_lanes(acc0[v], bias + cb + v * W);
        acc1[v] = acc0[v];
      }
      for (Index ci = 0; ci < layer.in_channels; ++ci) {
        const In* xc = xt + ci * cs;
        Double a0, a1, b0, b1;
        broadcast_lanes(a0, xc[0]);
        broadcast_lanes(a1, xc[ts]);
        broadcast_lanes(b0, xc[2 * ts]);
        broadcast_lanes(b1, xc[3 * ts]);
        const double* w = taps + ci * 2 * width + cb;
        for (Index v = 0; v < kVecs; ++v) {
          Double w0, w1;
          load_lanes(w0, w + v * W);
          load_lanes(w1, w + width + v * W);
          acc0[v] += __builtin_convertvector((zero + w0 * a0) + w1 * a1, Float);
          acc1[v] += __builtin_convertvector((zero + w0 * b0) + w1 * b1, Float);
        }
      }
      // Fused ReLU, x > 0 ? x : +0 (NaN and -0 become +0), then the exact
      // widening store.
      const Float fzero = {};
      for (Index v = 0; v < kVecs; ++v) {
        const Double r0 = __builtin_convertvector(acc0[v] > fzero ? acc0[v] : fzero, Double);
        const Double r1 = __builtin_convertvector(acc1[v] > fzero ? acc1[v] : fzero, Double);
        __builtin_memcpy(y0 + cb + v * W, &r0, sizeof(Double));
        __builtin_memcpy(y1 + cb + v * W, &r1, sizeof(Double));
      }
    }
  }
}

/// One packed Linear head over the last activation (time-major [2][width],
/// `channels` real channels), vectorised across outputs: each lane is one
/// output and accumulates bias + w * x in double over ascending features
/// c * 2 + t — Linear's order over the channel-major flatten.
template <int W>
VARADE_CONV_INLINE void halving_head(const PackedHalvingNet::Head& head, const double* act,
                                     Index act_width, Index channels, float* out) {
  using Double = typename Lanes<W>::Double;
  const double* weight = head.weight.data();
  for (Index ob = 0; ob < head.width; ob += W) {
    Double acc, w0, w1, x0, x1;
    load_lanes(acc, head.bias.data() + ob);
    for (Index c = 0; c < channels; ++c) {
      load_lanes(w0, weight + (c * 2) * head.width + ob);
      load_lanes(w1, weight + (c * 2 + 1) * head.width + ob);
      broadcast_lanes(x0, act[c]);
      broadcast_lanes(x1, act[act_width + c]);
      acc += w0 * x0;
      acc += w1 * x1;
    }
    for (Index j = 0; j < W && ob + j < head.out; ++j) out[ob + j] = static_cast<float>(acc[j]);
  }
}

template <int W>
VARADE_CONV_INLINE void halving_net_impl(const PackedHalvingNet& net, const float* x, Index rows,
                                         float* const* outs, double* scratch) {
  const Index window = net.window();
  const Index in_ch = net.in_channels();
  const auto& layers = net.layers();
  const auto& heads = net.heads();
  double* ping = scratch;
  double* pong = scratch + net.scratch_doubles() / 2;
  for (Index r = 0; r < rows; ++r) {
    // Layer 0 reads the channel-major row in place; each later layer reads
    // the previous one's time-major output.
    halving_conv_relu<W>(layers.front(), x + r * in_ch * window, 1, window, ping);
    for (std::size_t i = 1; i < layers.size(); ++i) {
      halving_conv_relu<W>(layers[i], static_cast<const double*>(ping), layers[i - 1].width, 1,
                           pong);
      std::swap(ping, pong);
    }
    const PackedHalvingNet::Layer& last = layers.back();
    for (std::size_t h = 0; h < heads.size(); ++h) {
      if (outs[h] == nullptr) continue;
      halving_head<W>(heads[h], ping, last.width, last.out_channels, outs[h] + r * heads[h].out);
    }
  }
}

// ------------------------------------------------ kernel dispatch table ----

void conv1d_interior_scalar(const float* px, const float* pw, float* py, Index n, Index in_ch,
                            Index out_ch, Index l_in, Index l_out, Index kernel, Index stride,
                            Index padding, Index t_lo, Index t_hi) {
  conv1d_interior_impl(px, pw, py, n, in_ch, out_ch, l_in, l_out, kernel, stride, padding,
                       t_lo, t_hi);
}

void convt1d_scatter_scalar(const float* px, const float* pw, float* py, Index n, Index in_ch,
                            Index out_ch, Index l_in, Index l_out, Index kernel,
                            Index stride) {
  convt1d_scatter_impl(px, pw, py, n, in_ch, out_ch, l_in, l_out, kernel, stride);
}

void halving_net_scalar(const PackedHalvingNet& net, const float* x, Index rows,
                        float* const* outs, double* scratch) {
  halving_net_impl<2>(net, x, rows, outs, scratch);
}

constexpr KernelTable kScalarKernels{conv1d_interior_scalar, convt1d_scatter_scalar,
                                     halving_net_scalar, "scalar"};

#ifdef VARADE_CONV_MULTIARCH
// The always_inline impl bodies are compiled again inside these wrappers, so
// the target("avx2") attribute applies to every loop in them.
__attribute__((target("avx2"))) void conv1d_interior_avx2(const float* px, const float* pw,
                                                          float* py, Index n, Index in_ch,
                                                          Index out_ch, Index l_in,
                                                          Index l_out, Index kernel,
                                                          Index stride, Index padding,
                                                          Index t_lo, Index t_hi) {
  conv1d_interior_impl(px, pw, py, n, in_ch, out_ch, l_in, l_out, kernel, stride, padding,
                       t_lo, t_hi);
}

__attribute__((target("avx2"))) void convt1d_scatter_avx2(const float* px, const float* pw,
                                                          float* py, Index n, Index in_ch,
                                                          Index out_ch, Index l_in,
                                                          Index l_out, Index kernel,
                                                          Index stride) {
  convt1d_scatter_impl(px, pw, py, n, in_ch, out_ch, l_in, l_out, kernel, stride);
}

__attribute__((target("avx2"))) void halving_net_avx2(const PackedHalvingNet& net,
                                                      const float* x, Index rows,
                                                      float* const* outs, double* scratch) {
  halving_net_impl<4>(net, x, rows, outs, scratch);
}

constexpr KernelTable kAvx2Kernels{conv1d_interior_avx2, convt1d_scatter_avx2,
                                   halving_net_avx2, "avx2"};
#endif

}  // namespace

/// Resolution runs once (static local, thread-safe under C++ magic statics)
/// on first use — well after any sanitizer runtime is up.
const KernelTable& kernels() {
  static const KernelTable& table = *runnable_kernel_tables().back();
  return table;
}

const std::vector<const KernelTable*>& runnable_kernel_tables() {
  static const std::vector<const KernelTable*> tables = [] {
    std::vector<const KernelTable*> t{&kScalarKernels};
#ifdef VARADE_CONV_MULTIARCH
    if (__builtin_cpu_supports("avx2")) t.push_back(&kAvx2Kernels);
#endif
    return t;
  }();
  return tables;
}

}  // namespace varade::nn
