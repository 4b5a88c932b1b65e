#include "varade/nn/layers.hpp"

#include <cmath>

#include "varade/nn/init.hpp"

namespace varade::nn {

// ---------------------------------------------------------------- Linear ----

Linear::Linear(Index in_features, Index out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_("weight", he_normal({out_features, in_features}, in_features, rng)),
      bias_("bias", Tensor({out_features})) {
  check(in_features > 0 && out_features > 0, "Linear dimensions must be positive");
}

Tensor Linear::forward(const Tensor& x) {
  cached_input_ = x;
  return apply(x);
}

Tensor Linear::forward_inference(const Tensor& x) { return apply(x); }

Tensor Linear::apply(const Tensor& x) const {
  check(x.rank() == 2 && x.dim(1) == in_,
        "Linear expected [N, " + std::to_string(in_) + "], got " + shape_to_string(x.shape()));
  const Index n = x.dim(0);
  Tensor y({n, out_});
  const float* px = x.data();
  const float* pw = weight_.value.data();
  const float* pb = bias_.value.data();
  float* py = y.data();
  for (Index i = 0; i < n; ++i) {
    for (Index o = 0; o < out_; ++o) {
      const float* wrow = pw + o * in_;
      const float* xrow = px + i * in_;
      double acc = pb[o];
      for (Index j = 0; j < in_; ++j) acc += static_cast<double>(wrow[j]) * xrow[j];
      py[i * out_ + o] = static_cast<float>(acc);
    }
  }
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  check(grad_out.rank() == 2 && grad_out.dim(1) == out_, "Linear backward shape mismatch");
  const Index n = grad_out.dim(0);
  check(cached_input_.rank() == 2 && cached_input_.dim(0) == n,
        "Linear backward called without matching forward");
  // dW[o,j] += sum_i g[i,o] * x[i,j];  db[o] += sum_i g[i,o];  dx = g W
  const float* pg = grad_out.data();
  const float* px = cached_input_.data();
  const float* pw = weight_.value.data();
  float* pdw = weight_.grad.data();
  float* pdb = bias_.grad.data();
  Tensor grad_in({n, in_});
  float* pdx = grad_in.data();
  for (Index i = 0; i < n; ++i) {
    const float* grow = pg + i * out_;
    const float* xrow = px + i * in_;
    float* dxrow = pdx + i * in_;
    for (Index o = 0; o < out_; ++o) {
      const float g = grow[o];
      if (g == 0.0F) continue;
      pdb[o] += g;
      float* dwrow = pdw + o * in_;
      const float* wrow = pw + o * in_;
      for (Index j = 0; j < in_; ++j) {
        dwrow[j] += g * xrow[j];
        dxrow[j] += g * wrow[j];
      }
    }
  }
  return grad_in;
}

Shape Linear::output_shape(const Shape& in) const {
  check(in.size() == 1 && in[0] == in_, "Linear output_shape mismatch");
  return {out_};
}

long Linear::flops(const Shape&) const { return 2L * in_ * out_; }

// ------------------------------------------------------------------ ReLU ----

Tensor ReLU::forward(const Tensor& x) {
  cached_input_ = x;
  return forward_inference(x);
}

Tensor ReLU::forward_inference(const Tensor& x) {
  // Same elementwise max as the map() path, minus the std::function call
  // per element — this runs once per residual-block layer on the serving
  // hot path and autovectorises as written.
  Tensor y = x;
  float* p = y.data();
  const Index n = y.numel();
  for (Index i = 0; i < n; ++i) p[i] = p[i] > 0.0F ? p[i] : 0.0F;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  check(grad_out.same_shape(cached_input_), "ReLU backward shape mismatch");
  Tensor g = grad_out;
  const Index n = g.numel();
  for (Index i = 0; i < n; ++i)
    if (cached_input_[i] <= 0.0F) g[i] = 0.0F;
  return g;
}

// ------------------------------------------------------------------ Tanh ----

Tensor Tanh::forward(const Tensor& x) {
  cached_output_ = forward_inference(x);
  return cached_output_;
}

Tensor Tanh::forward_inference(const Tensor& x) {
  return x.map([](float v) { return std::tanh(v); });
}

Tensor Tanh::backward(const Tensor& grad_out) {
  check(grad_out.same_shape(cached_output_), "Tanh backward shape mismatch");
  Tensor g = grad_out;
  const Index n = g.numel();
  for (Index i = 0; i < n; ++i) g[i] *= 1.0F - cached_output_[i] * cached_output_[i];
  return g;
}

// ---------------------------------------------------------------- Conv1d ----

Conv1d::Conv1d(Index in_channels, Index out_channels, Index kernel_size, Index stride,
               Index padding, Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel_size),
      stride_(stride),
      padding_(padding),
      weight_("weight",
              he_normal({out_channels, in_channels, kernel_size}, in_channels * kernel_size, rng)),
      bias_("bias", Tensor({out_channels})) {
  check(in_channels > 0 && out_channels > 0, "Conv1d channel counts must be positive");
  check(kernel_size > 0 && stride > 0 && padding >= 0, "Conv1d geometry invalid");
}

Index Conv1d::out_length(Index l) const {
  const Index padded = l + 2 * padding_;
  check(padded >= kernel_, "Conv1d input length " + std::to_string(l) + " shorter than kernel");
  return (padded - kernel_) / stride_ + 1;
}

Tensor Conv1d::forward(const Tensor& x) {
  cached_input_ = x;
  return apply(x);
}

const char* conv1d_kernel_name() { return kernels().name; }

Tensor Conv1d::forward_inference(const Tensor& x, const KernelTable& kernels) const {
  // Vectorised inference kernel. Every output element is still bias plus
  // ascending-ci float additions of ascending-k double dot products —
  // apply()'s exact per-element accumulation order, so the results are
  // bit-identical to forward() (pinned by test_nn_layers). The win: steps
  // whose windows never touch the zero padding need no bounds check, and
  // conv1d_interior runs them blocked across outputs (and AVX2-cloned);
  // only the few boundary steps keep the checked scalar loop.
  check(x.rank() == 3 && x.dim(1) == in_ch_,
        "Conv1d expected [N, " + std::to_string(in_ch_) + ", L], got " +
            shape_to_string(x.shape()));
  const Index n = x.dim(0);
  const Index l_in = x.dim(2);
  const Index l_out = out_length(l_in);
  // Interior steps t satisfy t*stride - padding >= 0 and
  // t*stride - padding + kernel <= l_in.
  const Index t_lo = std::min(l_out, (padding_ + stride_ - 1) / stride_);
  Index t_hi = t_lo;
  if (l_in + padding_ - kernel_ >= 0)
    t_hi = std::max(t_lo, std::min(l_out, (l_in + padding_ - kernel_) / stride_ + 1));

  Tensor y({n, out_ch_, l_out});
  const float* px = x.data();
  const float* pw = weight_.value.data();
  const float* pb = bias_.value.data();
  float* py = y.data();
  for (Index b = 0; b < n; ++b) {
    const float* xb = px + b * in_ch_ * l_in;
    float* yb = py + b * out_ch_ * l_out;
    for (Index co = 0; co < out_ch_; ++co) {
      const float* wc = pw + co * in_ch_ * kernel_;
      float* yc = yb + co * l_out;
      for (Index t = 0; t < l_out; ++t) yc[t] = pb[co];
      if (t_lo == 0 && t_hi == l_out) continue;  // fully interior (common case)
      for (Index ci = 0; ci < in_ch_; ++ci) {
        const float* xc = xb + ci * l_in;
        const float* wk = wc + ci * kernel_;
        // Boundary steps: the padded window clips, apply()'s scalar loop.
        const auto edge_step = [&](Index t) {
          const Index start = t * stride_ - padding_;
          double acc = 0.0;
          for (Index k = 0; k < kernel_; ++k) {
            const Index pos = start + k;
            if (pos >= 0 && pos < l_in) acc += static_cast<double>(wk[k]) * xc[pos];
          }
          yc[t] += static_cast<float>(acc);
        };
        for (Index t = 0; t < t_lo; ++t) edge_step(t);
        for (Index t = t_hi; t < l_out; ++t) edge_step(t);
      }
    }
  }
  kernels.conv1d_interior(px, pw, py, n, in_ch_, out_ch_, l_in, l_out, kernel_, stride_,
                          padding_, t_lo, t_hi);
  return y;
}

Tensor Conv1d::apply(const Tensor& x) const {
  check(x.rank() == 3 && x.dim(1) == in_ch_,
        "Conv1d expected [N, " + std::to_string(in_ch_) + ", L], got " +
            shape_to_string(x.shape()));
  const Index n = x.dim(0);
  const Index l_in = x.dim(2);
  const Index l_out = out_length(l_in);
  Tensor y({n, out_ch_, l_out});
  const float* px = x.data();
  const float* pw = weight_.value.data();
  const float* pb = bias_.value.data();
  float* py = y.data();
  for (Index b = 0; b < n; ++b) {
    const float* xb = px + b * in_ch_ * l_in;
    float* yb = py + b * out_ch_ * l_out;
    for (Index co = 0; co < out_ch_; ++co) {
      const float* wc = pw + co * in_ch_ * kernel_;
      float* yc = yb + co * l_out;
      for (Index t = 0; t < l_out; ++t) yc[t] = pb[co];
      for (Index ci = 0; ci < in_ch_; ++ci) {
        const float* xc = xb + ci * l_in;
        const float* wk = wc + ci * kernel_;
        for (Index t = 0; t < l_out; ++t) {
          const Index start = t * stride_ - padding_;
          double acc = 0.0;
          for (Index k = 0; k < kernel_; ++k) {
            const Index pos = start + k;
            if (pos >= 0 && pos < l_in) acc += static_cast<double>(wk[k]) * xc[pos];
          }
          yc[t] += static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

Tensor Conv1d::backward(const Tensor& grad_out) {
  const Index n = cached_input_.dim(0);
  const Index l_in = cached_input_.dim(2);
  const Index l_out = out_length(l_in);
  check(grad_out.rank() == 3 && grad_out.dim(0) == n && grad_out.dim(1) == out_ch_ &&
            grad_out.dim(2) == l_out,
        "Conv1d backward shape mismatch");
  Tensor grad_in(cached_input_.shape());
  const float* px = cached_input_.data();
  const float* pg = grad_out.data();
  const float* pw = weight_.value.data();
  float* pdw = weight_.grad.data();
  float* pdb = bias_.grad.data();
  float* pdx = grad_in.data();
  for (Index b = 0; b < n; ++b) {
    const float* xb = px + b * in_ch_ * l_in;
    const float* gb = pg + b * out_ch_ * l_out;
    float* dxb = pdx + b * in_ch_ * l_in;
    for (Index co = 0; co < out_ch_; ++co) {
      const float* gc = gb + co * l_out;
      const float* wc = pw + co * in_ch_ * kernel_;
      float* dwc = pdw + co * in_ch_ * kernel_;
      for (Index t = 0; t < l_out; ++t) pdb[co] += gc[t];
      for (Index ci = 0; ci < in_ch_; ++ci) {
        const float* xc = xb + ci * l_in;
        float* dxc = dxb + ci * l_in;
        const float* wk = wc + ci * kernel_;
        float* dwk = dwc + ci * kernel_;
        for (Index t = 0; t < l_out; ++t) {
          const float g = gc[t];
          if (g == 0.0F) continue;
          const Index start = t * stride_ - padding_;
          for (Index k = 0; k < kernel_; ++k) {
            const Index pos = start + k;
            if (pos >= 0 && pos < l_in) {
              dwk[k] += g * xc[pos];
              dxc[pos] += g * wk[k];
            }
          }
        }
      }
    }
  }
  return grad_in;
}

Shape Conv1d::output_shape(const Shape& in) const {
  check(in.size() == 2 && in[0] == in_ch_, "Conv1d output_shape mismatch");
  return {out_ch_, out_length(in[1])};
}

long Conv1d::flops(const Shape& in) const {
  check(in.size() == 2, "Conv1d flops expects [C, L]");
  return 2L * out_ch_ * in_ch_ * kernel_ * out_length(in[1]);
}

// ------------------------------------------------------- ConvTranspose1d ----

ConvTranspose1d::ConvTranspose1d(Index in_channels, Index out_channels, Index kernel_size,
                                 Index stride, Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel_size),
      stride_(stride),
      weight_("weight",
              he_normal({in_channels, out_channels, kernel_size}, in_channels * kernel_size, rng)),
      bias_("bias", Tensor({out_channels})) {
  check(in_channels > 0 && out_channels > 0 && kernel_size > 0 && stride > 0,
        "ConvTranspose1d geometry invalid");
}

Tensor ConvTranspose1d::forward(const Tensor& x) {
  cached_input_ = x;
  return apply(x);
}

Tensor ConvTranspose1d::forward_inference(const Tensor& x, const KernelTable& kernels) const {
  // Blocked scatter through the kernel dispatch table. Only non-overlapping
  // geometries (stride >= kernel, which covers the AE decoder's k2/s2
  // upsampling) take the fast path: every output element then receives at
  // most one contribution per input channel, so blocks of input steps write
  // disjoint outputs and the result is bit-identical to apply() (pinned by
  // test_nn_layers). Overlapping geometries keep the scalar reference.
  if (stride_ < kernel_) return apply(x);
  check(x.rank() == 3 && x.dim(1) == in_ch_, "ConvTranspose1d expected [N, C, L]");
  const Index n = x.dim(0);
  const Index l_in = x.dim(2);
  const Index l_out = (l_in - 1) * stride_ + kernel_;
  Tensor y({n, out_ch_, l_out});
  const float* pb = bias_.value.data();
  float* py = y.data();
  for (Index b = 0; b < n; ++b) {
    float* yb = py + b * out_ch_ * l_out;
    for (Index co = 0; co < out_ch_; ++co) {
      float* yc = yb + co * l_out;
      for (Index t = 0; t < l_out; ++t) yc[t] = pb[co];
    }
  }
  kernels.convt1d_scatter(x.data(), weight_.value.data(), py, n, in_ch_, out_ch_, l_in,
                          l_out, kernel_, stride_);
  return y;
}

Tensor ConvTranspose1d::apply(const Tensor& x) const {
  check(x.rank() == 3 && x.dim(1) == in_ch_, "ConvTranspose1d expected [N, C, L]");
  const Index n = x.dim(0);
  const Index l_in = x.dim(2);
  const Index l_out = (l_in - 1) * stride_ + kernel_;
  Tensor y({n, out_ch_, l_out});
  const float* px = x.data();
  const float* pw = weight_.value.data();
  const float* pb = bias_.value.data();
  float* py = y.data();
  for (Index b = 0; b < n; ++b) {
    const float* xb = px + b * in_ch_ * l_in;
    float* yb = py + b * out_ch_ * l_out;
    for (Index co = 0; co < out_ch_; ++co) {
      float* yc = yb + co * l_out;
      for (Index t = 0; t < l_out; ++t) yc[t] = pb[co];
    }
    for (Index ci = 0; ci < in_ch_; ++ci) {
      const float* xc = xb + ci * l_in;
      for (Index co = 0; co < out_ch_; ++co) {
        const float* wk = pw + (ci * out_ch_ + co) * kernel_;
        float* yc = yb + co * l_out;
        for (Index t = 0; t < l_in; ++t) {
          const float xv = xc[t];
          if (xv == 0.0F) continue;
          const Index start = t * stride_;
          for (Index k = 0; k < kernel_; ++k) yc[start + k] += xv * wk[k];
        }
      }
    }
  }
  return y;
}

Tensor ConvTranspose1d::backward(const Tensor& grad_out) {
  const Index n = cached_input_.dim(0);
  const Index l_in = cached_input_.dim(2);
  const Index l_out = (l_in - 1) * stride_ + kernel_;
  check(grad_out.rank() == 3 && grad_out.dim(0) == n && grad_out.dim(1) == out_ch_ &&
            grad_out.dim(2) == l_out,
        "ConvTranspose1d backward shape mismatch");
  Tensor grad_in(cached_input_.shape());
  const float* px = cached_input_.data();
  const float* pg = grad_out.data();
  const float* pw = weight_.value.data();
  float* pdw = weight_.grad.data();
  float* pdb = bias_.grad.data();
  float* pdx = grad_in.data();
  for (Index b = 0; b < n; ++b) {
    const float* xb = px + b * in_ch_ * l_in;
    const float* gb = pg + b * out_ch_ * l_out;
    float* dxb = pdx + b * in_ch_ * l_in;
    for (Index co = 0; co < out_ch_; ++co) {
      const float* gc = gb + co * l_out;
      for (Index t = 0; t < l_out; ++t) pdb[co] += gc[t];
    }
    for (Index ci = 0; ci < in_ch_; ++ci) {
      const float* xc = xb + ci * l_in;
      float* dxc = dxb + ci * l_in;
      for (Index co = 0; co < out_ch_; ++co) {
        const float* gc = gb + co * l_out;
        const float* wk = pw + (ci * out_ch_ + co) * kernel_;
        float* dwk = pdw + (ci * out_ch_ + co) * kernel_;
        for (Index t = 0; t < l_in; ++t) {
          const Index start = t * stride_;
          float dx_acc = 0.0F;
          for (Index k = 0; k < kernel_; ++k) {
            dx_acc += gc[start + k] * wk[k];
            dwk[k] += gc[start + k] * xc[t];
          }
          dxc[t] += dx_acc;
        }
      }
    }
  }
  return grad_in;
}

Shape ConvTranspose1d::output_shape(const Shape& in) const {
  check(in.size() == 2 && in[0] == in_ch_, "ConvTranspose1d output_shape mismatch");
  return {out_ch_, (in[1] - 1) * stride_ + kernel_};
}

long ConvTranspose1d::flops(const Shape& in) const {
  check(in.size() == 2, "ConvTranspose1d flops expects [C, L]");
  return 2L * out_ch_ * in_ch_ * kernel_ * in[1];
}

// --------------------------------------------------------------- Flatten ----

Tensor Flatten::forward(const Tensor& x) {
  cached_shape_ = x.shape();
  return forward_inference(x);
}

Tensor Flatten::forward_inference(const Tensor& x) {
  check(x.rank() >= 2, "Flatten expects a batched tensor");
  Index inner = 1;
  for (Index a = 1; a < x.rank(); ++a) inner *= x.dim(a);
  return x.reshaped({x.dim(0), inner});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(cached_shape_);
}

Shape Flatten::output_shape(const Shape& in) const {
  return {shape_numel(in)};
}

// ---------------------------------------------------------- LastTimeStep ----

Tensor LastTimeStep::forward(const Tensor& x) {
  check(x.rank() == 3, "LastTimeStep expects [N, C, L]");
  cached_shape_ = x.shape();
  return forward_inference(x);
}

Tensor LastTimeStep::forward_inference(const Tensor& x) {
  check(x.rank() == 3, "LastTimeStep expects [N, C, L]");
  const Index n = x.dim(0);
  const Index c = x.dim(1);
  const Index l = x.dim(2);
  Tensor y({n, c});
  for (Index b = 0; b < n; ++b)
    for (Index ch = 0; ch < c; ++ch) y[b * c + ch] = x[(b * c + ch) * l + (l - 1)];
  return y;
}

Tensor LastTimeStep::backward(const Tensor& grad_out) {
  const Index n = cached_shape_[0];
  const Index c = cached_shape_[1];
  const Index l = cached_shape_[2];
  check(grad_out.rank() == 2 && grad_out.dim(0) == n && grad_out.dim(1) == c,
        "LastTimeStep backward shape mismatch");
  Tensor g(cached_shape_);
  for (Index b = 0; b < n; ++b)
    for (Index ch = 0; ch < c; ++ch) g[(b * c + ch) * l + (l - 1)] = grad_out[b * c + ch];
  return g;
}

Shape LastTimeStep::output_shape(const Shape& in) const {
  check(in.size() == 2, "LastTimeStep output_shape expects [C, L]");
  return {in[0]};
}

// ------------------------------------------------------- ResidualBlock1d ----

ResidualBlock1d::ResidualBlock1d(Index channels, Rng& rng)
    : conv1_(channels, channels, 3, 1, 1, rng), conv2_(channels, channels, 3, 1, 1, rng) {}

Tensor ResidualBlock1d::forward(const Tensor& x) {
  Tensor h = relu1_.forward(x);
  h = conv1_.forward(h);
  h = relu2_.forward(h);
  h = conv2_.forward(h);
  return h + x;
}

Tensor ResidualBlock1d::forward_inference(const Tensor& x) {
  Tensor h = relu1_.forward_inference(x);
  h = conv1_.forward_inference(h);
  h = relu2_.forward_inference(h);
  h = conv2_.forward_inference(h);
  return h + x;
}

Tensor ResidualBlock1d::backward(const Tensor& grad_out) {
  Tensor g = conv2_.backward(grad_out);
  g = relu2_.backward(g);
  g = conv1_.backward(g);
  g = relu1_.backward(g);
  return g + grad_out;  // skip connection
}

std::vector<Parameter*> ResidualBlock1d::parameters() {
  std::vector<Parameter*> ps = conv1_.parameters();
  auto p2 = conv2_.parameters();
  ps.insert(ps.end(), p2.begin(), p2.end());
  return ps;
}

long ResidualBlock1d::flops(const Shape& in) const {
  return conv1_.flops(in) + conv2_.flops(in) + 2 * shape_numel(in);
}

}  // namespace varade::nn
