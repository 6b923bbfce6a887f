#include "yates/yates.hpp"

#include <algorithm>
#include <stdexcept>

#include "field/backend_dispatch.hpp"

namespace camelot {

template <class Field>
void yates_apply(const Field& fref, std::span<const u64> base,
                 std::size_t t_dim, std::size_t s_dim, std::span<const u64> x,
                 unsigned k, std::size_t batch, std::vector<u64>& result,
                 std::vector<u64>& scratch) {
  // By-value copy keeps the field constants in registers across the
  // dst[] stores (a reference could alias the written data).
  const Field f = fref;
  if (base.size() != t_dim * s_dim) {
    throw std::invalid_argument("yates_apply: base shape mismatch");
  }
  if (batch == 0 || x.size() != ipow(s_dim, k) * batch) {
    throw std::invalid_argument("yates_apply: input size != s^k * batch");
  }
  if (k == 0) {
    result.assign(x.begin(), x.end());
    return;
  }
  // After level L the array is indexed by
  // (i_1..i_L, j_{L+1}..j_k, c)  ->  (prefix * s^{k-L} + suffix) * batch + c,
  // prefix in [t^L] (base t), suffix in [s^{k-L}] (base s), c in
  // [batch]: the batch column rides along as the innermost suffix
  // digit, so every row covers all columns at once. The last level
  // writes the result; level L before it writes half L % 2 of the
  // scratch buffer, so each level reads the other half.
  std::size_t half = 0;
  for (unsigned level = 0; level + 1 < k; ++level) {
    half = std::max<std::size_t>(
        half, ipow(t_dim, level + 1) * ipow(s_dim, k - 1 - level) * batch);
  }
  scratch.resize(2 * half);
  result.resize(ipow(t_dim, k) * batch);
  // Trilinear decompositions are dominated by 0/±1 weights; f.one()
  // is the in-domain unit (the Montgomery form of 1 for that backend).
  const u64 unit = f.one();
  // The lanes run one program per level: row i's weights, each as an
  // add (+1), a subtract (-1) or a multiply-add, then its store.
  std::vector<YatesStep> program;
  if constexpr (FieldHasBatchKernels<Field>) {
    const u64 minus_unit = f.neg(unit);
    program.reserve(t_dim * (s_dim + 1));
    for (std::size_t i = 0; i < t_dim; ++i) {
      for (std::size_t j = 0; j < s_dim; ++j) {
        const u64 w = base[i * s_dim + j];
        if (w == 0) continue;
        const YatesOp op = w == unit         ? YatesOp::kAdd
                           : w == minus_unit ? YatesOp::kSub
                                             : YatesOp::kMul;
        program.push_back({op, static_cast<u32>(j), w});
      }
      program.push_back({YatesOp::kStore, static_cast<u32>(i), 0});
    }
  }
  const u64* in = x.data();
  for (unsigned level = 0; level < k; ++level) {
    const u64 prefix_count = ipow(t_dim, level);
    const u64 suffix_count = ipow(s_dim, k - 1 - level) * batch;
    u64* out = level + 1 == k ? result.data()
                              : scratch.data() + (level % 2) * half;
    if constexpr (FieldHasBatchKernels<Field>) {
      f.yates_level(program.data(), program.size(), in, s_dim, out, t_dim,
                    prefix_count, suffix_count);
    } else {
      // The reference loop: accumulate every weight's row push.
      std::fill(out, out + prefix_count * t_dim * suffix_count, 0);
      for (u64 p = 0; p < prefix_count; ++p) {
        for (std::size_t i = 0; i < t_dim; ++i) {
          for (std::size_t j = 0; j < s_dim; ++j) {
            const u64 w = base[i * s_dim + j];
            if (w == 0) continue;
            const u64* src = in + (p * s_dim + j) * suffix_count;
            u64* dst = out + (p * t_dim + i) * suffix_count;
            if (w == unit) {
              vec_add(f, dst, src, suffix_count);
            } else {
              vec_addmul(f, dst, w, src, suffix_count);
            }
          }
        }
      }
    }
    in = out;
  }
}

template <class Field>
std::vector<u64> yates_apply(const Field& f, std::span<const u64> base,
                             std::size_t t_dim, std::size_t s_dim,
                             std::span<const u64> x, unsigned k,
                             std::size_t batch) {
  std::vector<u64> result, scratch;
  yates_apply(f, base, t_dim, s_dim, x, k, batch, result, scratch);
  return result;
}

#define CAMELOT_YATES_INSTANTIATE(Field)                                 \
  template void yates_apply<Field>(                                      \
      const Field&, std::span<const u64>, std::size_t, std::size_t,      \
      std::span<const u64>, unsigned, std::size_t, std::vector<u64>&,    \
      std::vector<u64>&);                                                \
  template std::vector<u64> yates_apply<Field>(                          \
      const Field&, std::span<const u64>, std::size_t, std::size_t,      \
      std::span<const u64>, unsigned, std::size_t);

CAMELOT_YATES_INSTANTIATE(PrimeField)
CAMELOT_YATES_INSTANTIATE(MontgomeryField)
CAMELOT_YATES_INSTANTIATE(MontgomeryAvx2Field)
CAMELOT_YATES_INSTANTIATE(MontgomeryAvx512Field)
#undef CAMELOT_YATES_INSTANTIATE

std::vector<u64> yates_apply_naive(const PrimeField& f,
                                   std::span<const u64> base,
                                   std::size_t t_dim, std::size_t s_dim,
                                   std::span<const u64> x, unsigned k) {
  if (base.size() != t_dim * s_dim || x.size() != ipow(s_dim, k)) {
    throw std::invalid_argument("yates_apply_naive: shape mismatch");
  }
  const u64 out_size = ipow(t_dim, k);
  std::vector<u64> y(out_size, 0);
  for (u64 i = 0; i < out_size; ++i) {
    for (u64 j = 0; j < x.size(); ++j) {
      if (x[j] == 0) continue;
      // Product over digits, most significant first.
      u64 w = f.one();
      u64 ii = i, jj = j;
      for (unsigned level = 0; level < k; ++level) {
        const u64 id = (ii / ipow(t_dim, k - 1 - level)) % t_dim;
        const u64 jd = (jj / ipow(s_dim, k - 1 - level)) % s_dim;
        w = f.mul(w, base[id * s_dim + jd]);
      }
      y[i] = f.add(y[i], f.mul(w, x[j]));
    }
  }
  return y;
}

}  // namespace camelot
