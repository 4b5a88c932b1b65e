// Runtime-dispatched inference kernels of the nn module.
//
// Each kernel body is an always_inline template compiled twice — once plain,
// once inside an __attribute__((target("avx2"))) wrapper so the compiler
// vectorises it four doubles wide (FMA stays off: the kernels promise the
// exact per-element arithmetic of the scalar references in layers.cpp) —
// and an explicit function-pointer table picks one set per host via
// __builtin_cpu_supports("avx2"), resolved once at first use.
//
// A plain static-local table, unlike an ifunc resolver, runs after sanitizer
// runtimes are initialised, so ASan/UBSan and TSan builds execute the same
// vectorised kernels as release builds (asserted by conv1d_kernel_name() in
// the test suite).
#pragma once

#include <vector>

#include "varade/tensor/tensor.hpp"

namespace varade::nn {

class PackedHalvingNet;

/// One complete kernel set. Every set computes bit-identical results; they
/// differ only in the instructions they may use.
struct KernelTable {
  /// Conv1d interior output steps (windows fully in bounds) over
  /// bias-filled output rows: px [n, in_ch, l_in], pw [out_ch, in_ch,
  /// kernel], py [n, out_ch, l_out]; steps [t_lo, t_hi).
  void (*conv1d_interior)(const float* px, const float* pw, float* py, Index n, Index in_ch,
                          Index out_ch, Index l_in, Index l_out, Index kernel, Index stride,
                          Index padding, Index t_lo, Index t_hi);
  /// Non-overlapping ConvTranspose1d scatter (stride >= kernel) over
  /// bias-filled output rows: px [n, in_ch, l_in], pw [in_ch, out_ch,
  /// kernel], py [n, out_ch, l_out].
  void (*convt1d_scatter)(const float* px, const float* pw, float* py, Index n, Index in_ch,
                          Index out_ch, Index l_in, Index l_out, Index kernel, Index stride);
  /// PackedHalvingNet forward over `rows` contiguous [C, T] rows; head h
  /// writes [rows, its out] to outs[h] unless outs[h] is null. `scratch`
  /// holds net.scratch_doubles() doubles.
  void (*halving_net)(const PackedHalvingNet& net, const float* x, Index rows,
                      float* const* outs, double* scratch);
  const char* name;  // "avx2" or "scalar"
};

/// The kernel set selected for this host: "avx2" when the build targets
/// x86-64 and the CPU supports AVX2, otherwise "scalar".
const KernelTable& kernels();

/// Every kernel set this host can execute, the scalar set first. Lets the
/// test suite pin each set against the scalar references, including the
/// sets the dispatch does not select on this host.
const std::vector<const KernelTable*>& runnable_kernel_tables();

}  // namespace varade::nn
