// Lane-wide Montgomery backends (FieldBackend::kMontgomeryAvx2 and
// kMontgomeryAvx512).
//
// MontgomeryLaneField<Isa> is a MontgomeryField (same domain, same
// scalar surface) whose batch kernels run kLanes u64 lanes at a time
// (4 on AVX2, 8 on AVX-512) and return exactly the scalar loop's words.
// They take odd q < 2^31 only (REDC by 2^64 as two REDC-32 steps), the
// range the planner's CRT primes come from (core/prime_plan.cpp); the
// constructor throws std::invalid_argument for any other modulus.
//
// The kernels are written once (field/montgomery_lanes_kernel.hpp) and
// instantiated in field/montgomery_avx2.cpp (-mavx2) and
// field/montgomery_avx512.cpp (-mavx512f -mavx512dq), the only
// ISA-flagged code in the build, which reaches scalar code only through
// out-of-line functions (tests/check_isa_confinement.py checks the
// binaries). Run the batch kernels only where FieldOps dispatch
// resolved to them: it steps down the ladder when the CPU lacks the
// ISA, when CAMELOT_FORCE_SCALAR / CAMELOT_FORCE_AVX2 say so, or when
// q is not a lane prime.
#pragma once

#include <cstddef>
#include <stdexcept>

#include "field/montgomery.hpp"
#include "field/ntt_passes.hpp"

namespace camelot {

// Advertises lane-wide batch kernels to the templated polynomial and
// Yates kernels: `if constexpr (FieldHasBatchKernels<Field>)` routes
// their mul-heavy inner loops through the batch entry points.
template <class Field>
concept FieldHasBatchKernels =
    requires(const Field& f, u64* r, const u64* a, u64 s, std::size_t n) {
      f.mul_vec(a, a, r, n);
      f.scale_vec(a, s, r, n);
      f.addmul_inplace(r, s, a, n);
      f.submul_inplace(r, s, a, n);
      f.add_inplace(r, a, n);
    };

// One step of a Yates level program (MontgomeryLaneField::yates_level):
// add, subtract or multiply-add input row `row` into the running sum,
// or store the sum to output row `row` and clear it. A base row's
// weights become one step each (+1 adds, -1 subtracts, any other
// nonzero weight w multiplies), followed by its store.
enum class YatesOp : u32 { kAdd, kSub, kMul, kStore };
struct YatesStep {
  YatesOp op;
  u32 row;
  u64 w;  // Montgomery-domain weight of a kMul step
};

// The instruction sets with a lane kernel, by width.
struct Avx2Lanes {
  static constexpr std::size_t kLanes = 4;
};
struct Avx512Lanes {
  static constexpr std::size_t kLanes = 8;
};

template <class Isa>
class MontgomeryLaneField : public MontgomeryField {
 public:
  static constexpr std::size_t kLanes = Isa::kLanes;

  explicit MontgomeryLaneField(const MontgomeryField& m)
      : MontgomeryField(m) {
    if (m.trivial() || (m.modulus() >> 31) != 0) {
      throw std::invalid_argument(
          "MontgomeryLaneField: modulus must be an odd prime below 2^31");
    }
  }

  // ---- Batch kernels (defined in the ISA's translation unit) ---------
  // All take Montgomery-domain values, handle any n (a one-lane tail
  // finishes what the vectors leave), and tolerate out == a.

  // out[i] = a[i] * b[i]
  void mul_vec(const u64* a, const u64* b, u64* out,
               std::size_t n) const noexcept;
  // out[i] = a[i] * s
  void scale_vec(const u64* a, u64 s, u64* out, std::size_t n) const noexcept;
  // r[i] = r[i] + s * b[i]   (schoolbook/Karatsuba row push)
  void addmul_inplace(u64* r, u64 s, const u64* b,
                      std::size_t n) const noexcept;
  // r[i] = r[i] - s * b[i]   (polynomial remainder row elimination)
  void submul_inplace(u64* r, u64 s, const u64* b,
                      std::size_t n) const noexcept;
  // r[i] = r[i] + b[i]       (unit-weight Yates push)
  void add_inplace(u64* r, const u64* b, std::size_t n) const noexcept;
  // out[i] = x - a[i]        (Lagrange node differences)
  void sub_from_scalar(u64 x, const u64* a, u64* out,
                       std::size_t n) const noexcept;
  // sum_i a[i] * b[i]
  u64 dot(const u64* a, const u64* b, std::size_t n) const noexcept;
  // The Lagrange basis of ConsecutiveLagrange::basis_mont_block:
  // out[i * width + b] = inv_w[i] * prod_{j != i} (xs[b] - nodes[j])
  // for i < count and b < width. Two product chains run in registers,
  // the prefix one down from row 0 and the suffix one up from row
  // count - 1, making each difference from the broadcast node as they
  // go: the first to reach a row stores its product times inv_w[i],
  // the second multiplies its own in. Every row is stored twice and
  // read once, whatever the width.
  void lagrange_block(const u64* nodes, const u64* inv_w, std::size_t count,
                      const u64* xs, std::size_t width,
                      u64* out) const noexcept;
  // One level of Yates's algorithm: for each of `blocks` blocks of s
  // input rows and t output rows, every n words long, runs `program`
  // on every column of two vectors (then one, then one word), keeping
  // each output row's sum in registers until its store: each input
  // word is read from its stream once and each output word written
  // once, with no zero fill and no read-modify-write. out must not
  // overlap in.
  void yates_level(const YatesStep* program, std::size_t steps,
                   const u64* in, std::size_t s, u64* out, std::size_t t,
                   std::size_t blocks, std::size_t n) const noexcept;
  // Whole radix-2 passes over a[0..n), n a power of two, with the
  // twiddles of field/ntt_passes.hpp in either flavour: ntt_dif is the
  // forward DIF pass (natural order in, bit-reversed spectrum out),
  // ntt_dit the DIT pass (bit-reversed in, natural order out, no 1/n).
  // Stages with h >= kLanes run vector-wide, the shorter ones fused in
  // registers (one load and one store per vector); n < kLanes takes
  // ntt_dif_scalar / ntt_dit_scalar. Same words as those either way.
  void ntt_dif(u64* a, std::size_t n, NttTwiddles tw) const noexcept;
  void ntt_dit(u64* a, std::size_t n, NttTwiddles tw) const noexcept;
};

using MontgomeryAvx2Field = MontgomeryLaneField<Avx2Lanes>;
using MontgomeryAvx512Field = MontgomeryLaneField<Avx512Lanes>;

}  // namespace camelot
