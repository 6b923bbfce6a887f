// The batch kernels of MontgomeryLaneField, written once over a lane
// primitive set. Included only by the ISA translation units, each of
// which specializes lanes::Prims for its tag and ends with
// CAMELOT_LANE_INSTANTIATE; the helpers have internal linkage, so each
// ISA's copy stays in its own translation unit.
//
// A primitive set P holds P::kLanes u64s in a P::V and supplies
// load / store / set1; mul32 (lo32(a) * lo32(b) per lane, vpmuludq),
// add / sub / shr32; reduce_2q ([0, 2q) -> [0, q)) and mod_sub; and,
// for kLanes > 1, the NTT stages with h < kLanes fused in one vector
// (Short, short_twiddles, dif_short, dit_short). The one-lane set
// Scalar finishes the tails with the same words.
#pragma once

#include <cstddef>

#include "field/montgomery_lanes.hpp"

namespace camelot::lanes {
namespace {

struct Scalar {
  using V = u64;
  static constexpr std::size_t kLanes = 1;
  static V load(const u64* p) noexcept { return *p; }
  static void store(u64* p, V v) noexcept { *p = v; }
  static V set1(u64 x) noexcept { return x; }
  static V mul32(V a, V b) noexcept {
    return (a & 0xFFFFFFFFu) * (b & 0xFFFFFFFFu);
  }
  static V add(V a, V b) noexcept { return a + b; }
  static V sub(V a, V b) noexcept { return a - b; }
  static V shr32(V a) noexcept { return a >> 32; }
  static V reduce_2q(V r, V q) noexcept { return r - (q & -u64{r >= q}); }
  static V mod_sub(V a, V b, V q) noexcept { return a - b + (q & -u64{a < b}); }
};

// Each ISA TU specializes this for its tag; a build without the ISA's
// flags (a non-x86 target) runs the same members one lane at a time.
template <class Isa>
struct Prims : Scalar {};

// The modulus and -q^{-1} mod 2^64, broadcast once per call.
template <class P>
struct Ctx {
  typename P::V q, ninv;
  Ctx(u64 modulus, u64 neg_q_inv) noexcept
      : q(P::set1(modulus)), ninv(P::set1(neg_q_inv)) {}
};

template <class P, class V = typename P::V>
inline V mod_add(V a, V b, V q) noexcept {
  return P::reduce_2q(P::add(a, b), q);
}

// One REDC-32 step: t -> (t + (t * -q^{-1} mod 2^32) * q) >> 32, an
// exact division because the low word cancels. Operands below 2^31
// fit one 32-bit word, so a product is one mul32 and REDC by 2^64 (two
// steps) costs 5 per vector; every sum stays below 2^64 (t < 2^62,
// m * q < 2^63).
template <class P, class V = typename P::V>
inline V redc32_step(V t, const Ctx<P>& c) noexcept {
  const V m = P::mul32(t, c.ninv);  // low 32 bits are m_i
  return P::shr32(P::add(t, P::mul32(m, c.q)));
}

// Montgomery product of domain values: a * b * R^{-1} mod q.
template <class P, class V = typename P::V>
inline V mont_mul(V a, V b, const Ctx<P>& c) noexcept {
  const V t = P::mul32(a, b);  // a, b < q < 2^31
  return P::reduce_2q(redc32_step(redc32_step(t, c), c), c.q);
}

// The one-lane product is the scalar backend's REDC-64 itself, the
// same word as the two REDC-32 steps. Its 128-bit product also keeps
// the compiler from vectorizing the tail loops a second time.
inline u64 mont_mul(u64 a, u64 b, const Ctx<Scalar>& c) noexcept {
  const u64 t = a * b;  // a, b < q < 2^31
  const u64 m = t * c.ninv;
  return Scalar::reduce_2q(
      static_cast<u64>((static_cast<u128>(m) * c.q + t) >> 64), c.q);
}

// Shoup product a * w mod q for canonical w with quotient wq =
// floor(w * 2^64 / q): hi = floor(a * wq / 2^64) from the partials
// a * lo32(wq) and a * hi32(wq); hi < a < 2^31 makes hi*q and a*w
// single exact products.
template <class P, class V = typename P::V>
inline V shoup_mul(V a, V w, V wq, V q) noexcept {
  const V p0 = P::mul32(a, wq);
  const V p1 = P::mul32(a, P::shr32(wq));
  // p1 + (p0 >> 32) < 2^64: p1 <= (2^31-1)(2^32-1), p0 >> 32 < 2^31.
  const V hi = P::shr32(P::add(p1, P::shr32(p0)));
  return P::reduce_2q(P::sub(P::mul32(a, w), P::mul32(hi, q)), q);
}

// The twiddle product of a pass flavour (field/ntt_passes.hpp): Shoup
// with canonical twiddle w and quotient wq, or REDC with the
// Montgomery-domain twiddle w (wq unused).
template <bool kShoup, class P, class V = typename P::V>
inline V tw_mul(V x, V w, V wq, const Ctx<P>& c) noexcept {
  return kShoup ? shoup_mul<P>(x, w, wq, c.q) : mont_mul(x, w, c);
}

// kLanes quotients from entry i on (zero for REDC, whose qt is null).
template <bool kShoup, class P>
inline typename P::V load_qt(const u64* qt, std::size_t i) noexcept {
  return kShoup ? P::load(qt + i) : P::set1(0);
}

// body(ctx, i) over kLanes-wide blocks of [0, n), then over the tail
// one word at a time; body reads the primitive set off the context.
template <class Isa, class Body>
inline void for_lanes(u64 q, u64 ninv, std::size_t n, Body body) noexcept {
  using P = Prims<Isa>;
  std::size_t i = 0;
  const Ctx<P> c(q, ninv);
  for (; i + P::kLanes <= n; i += P::kLanes) body(c, i);
  const Ctx<Scalar> s(q, ninv);
  for (; i < n; ++i) body(s, i);
}

// lagrange_block over G vectors of P: xs and out start at the group's
// first column, and `stride` is the row length of out.
template <std::size_t G, class P>
void lagrange_cols(const u64* nodes, const u64* inv_w, std::size_t count,
                   const u64* xs, u64* out, std::size_t stride, u64 one,
                   const Ctx<P>& c) noexcept {
  typename P::V x[G], pre[G], suf[G];
  for (std::size_t g = 0; g < G; ++g) {
    x[g] = P::load(xs + g * P::kLanes);
    pre[g] = suf[g] = P::set1(one);
  }
  const auto at = [&](std::size_t row, std::size_t g) {
    return out + row * stride + g * P::kLanes;
  };
  // chain *= x - node
  const auto advance = [&](auto& chain, std::size_t g, u64 node) {
    chain = mont_mul(chain, P::mod_sub(x[g], P::set1(node), c.q), c);
  };
  // First half: each chain meets its rows first. Row i = s has the
  // prefix product prod_{j<i}, row k = count-1-s the suffix prod_{j>k}.
  const std::size_t half = count / 2;
  for (std::size_t s = 0; s < half; ++s) {
    const std::size_t i = s, k = count - 1 - s;
    for (std::size_t g = 0; g < G; ++g) {
      P::store(at(i, g), mont_mul(pre[g], P::set1(inv_w[i]), c));
      P::store(at(k, g), mont_mul(suf[g], P::set1(inv_w[k]), c));
      advance(pre[g], g, nodes[i]);
      advance(suf[g], g, nodes[k]);
    }
  }
  // An odd count leaves the middle row, which both chains reach at once.
  if (count % 2 == 1) {
    for (std::size_t g = 0; g < G; ++g) {
      const auto w = P::set1(inv_w[half]);
      P::store(at(half, g), mont_mul(mont_mul(pre[g], suf[g], c), w, c));
      advance(pre[g], g, nodes[half]);
      advance(suf[g], g, nodes[half]);
    }
  }
  // Second half: each chain finishes the rows the other one began.
  for (std::size_t s = 0; s < half; ++s) {
    const std::size_t i = count - half + s, k = half - 1 - s;
    for (std::size_t g = 0; g < G; ++g) {
      P::store(at(i, g), mont_mul(P::load(at(i, g)), pre[g], c));
      P::store(at(k, g), mont_mul(P::load(at(k, g)), suf[g], c));
      advance(pre[g], g, nodes[i]);
      advance(suf[g], g, nodes[k]);
    }
  }
}

// yates_level's program over G vectors of P: src and dst start at the
// group's first column of the block, and n is the row length.
template <std::size_t G, class P>
void yates_cols(const YatesStep* program, const YatesStep* end,
                const u64* src, u64* dst, std::size_t n,
                const Ctx<P>& c) noexcept {
  typename P::V acc[G];
  for (std::size_t g = 0; g < G; ++g) acc[g] = P::set1(0);
  for (const YatesStep* st = program; st != end; ++st) {
    const u64* in = src + st->row * n;
    switch (st->op) {
      case YatesOp::kAdd:
        for (std::size_t g = 0; g < G; ++g) {
          acc[g] = mod_add<P>(acc[g], P::load(in + g * P::kLanes), c.q);
        }
        break;
      case YatesOp::kSub:
        for (std::size_t g = 0; g < G; ++g) {
          acc[g] = P::mod_sub(acc[g], P::load(in + g * P::kLanes), c.q);
        }
        break;
      case YatesOp::kMul: {
        const auto w = P::set1(st->w);
        for (std::size_t g = 0; g < G; ++g) {
          const auto p = mont_mul(P::load(in + g * P::kLanes), w, c);
          acc[g] = mod_add<P>(acc[g], p, c.q);
        }
        break;
      }
      case YatesOp::kStore: {
        u64* out = dst + st->row * n;
        for (std::size_t g = 0; g < G; ++g) {
          P::store(out + g * P::kLanes, acc[g]);
          acc[g] = P::set1(0);
        }
        break;
      }
    }
  }
}

// Whole passes for n >= kLanes: the stages with h >= kLanes walk
// vector-wide blocks, and the short ones run fused in registers, one
// load and one store per kLanes words.
template <bool kShoup, class P>
void dif_pass(u64* a, std::size_t n, NttTwiddles tw,
              const Ctx<P>& c) noexcept {
  for (std::size_t h = n / 2; h >= P::kLanes; h /= 2) {
    const u64* op = tw.op + (h - 1);
    for (std::size_t i = 0; i < n; i += 2 * h) {
      u64* lo = a + i;
      u64* hi = lo + h;
      for (std::size_t j = 0; j < h; j += P::kLanes) {
        const auto u = P::load(lo + j);
        const auto v = P::load(hi + j);
        P::store(lo + j, mod_add<P>(u, v, c.q));
        P::store(hi + j,
                 tw_mul<kShoup>(P::mod_sub(u, v, c.q), P::load(op + j),
                                load_qt<kShoup, P>(tw.qt, h - 1 + j), c));
      }
    }
  }
  if constexpr (P::kLanes > 1) {
    const auto s = P::template short_twiddles<kShoup>(tw);
    for (std::size_t i = 0; i < n; i += P::kLanes) {
      P::store(a + i, P::template dif_short<kShoup>(P::load(a + i), s, c));
    }
  }
}

template <bool kShoup, class P>
void dit_pass(u64* a, std::size_t n, NttTwiddles tw,
              const Ctx<P>& c) noexcept {
  std::size_t h = 1;
  if constexpr (P::kLanes > 1) {
    const auto s = P::template short_twiddles<kShoup>(tw);
    for (std::size_t i = 0; i < n; i += P::kLanes) {
      P::store(a + i, P::template dit_short<kShoup>(P::load(a + i), s, c));
    }
    h = P::kLanes;
  }
  for (; h < n; h *= 2) {
    const u64* op = tw.op + (h - 1);
    for (std::size_t i = 0; i < n; i += 2 * h) {
      u64* lo = a + i;
      u64* hi = lo + h;
      for (std::size_t j = 0; j < h; j += P::kLanes) {
        const auto u = P::load(lo + j);
        const auto v = tw_mul<kShoup>(P::load(hi + j), P::load(op + j),
                                      load_qt<kShoup, P>(tw.qt, h - 1 + j), c);
        P::store(lo + j, mod_add<P>(u, v, c.q));
        P::store(hi + j, P::mod_sub(u, v, c.q));
      }
    }
  }
}

// One pass with the twiddle product of tw's flavour.
template <bool kDit, class P>
void run_pass(u64 q, u64 ninv, u64* a, std::size_t n,
              NttTwiddles tw) noexcept {
  const Ctx<P> c(q, ninv);
  if (tw.qt != nullptr) {
    kDit ? dit_pass<true>(a, n, tw, c) : dif_pass<true>(a, n, tw, c);
  } else {
    kDit ? dit_pass<false>(a, n, tw, c) : dif_pass<false>(a, n, tw, c);
  }
}

}  // namespace
}  // namespace camelot::lanes

namespace camelot {

template <class Isa>
void MontgomeryLaneField<Isa>::mul_vec(const u64* a, const u64* b, u64* out,
                                       std::size_t n) const noexcept {
  using namespace lanes;
  for_lanes<Isa>(q_, neg_q_inv_, n, [&]<class P>(const Ctx<P>& c, auto i) {
    P::store(out + i, mont_mul(P::load(a + i), P::load(b + i), c));
  });
}

template <class Isa>
void MontgomeryLaneField<Isa>::scale_vec(const u64* a, u64 s, u64* out,
                                         std::size_t n) const noexcept {
  using namespace lanes;
  for_lanes<Isa>(q_, neg_q_inv_, n, [&]<class P>(const Ctx<P>& c, auto i) {
    P::store(out + i, mont_mul(P::load(a + i), P::set1(s), c));
  });
}

template <class Isa>
void MontgomeryLaneField<Isa>::addmul_inplace(u64* r, u64 s, const u64* b,
                                              std::size_t n) const noexcept {
  using namespace lanes;
  for_lanes<Isa>(q_, neg_q_inv_, n, [&]<class P>(const Ctx<P>& c, auto i) {
    const auto p = mont_mul(P::set1(s), P::load(b + i), c);
    P::store(r + i, mod_add<P>(P::load(r + i), p, c.q));
  });
}

template <class Isa>
void MontgomeryLaneField<Isa>::submul_inplace(u64* r, u64 s, const u64* b,
                                              std::size_t n) const noexcept {
  using namespace lanes;
  for_lanes<Isa>(q_, neg_q_inv_, n, [&]<class P>(const Ctx<P>& c, auto i) {
    const auto p = mont_mul(P::set1(s), P::load(b + i), c);
    P::store(r + i, P::mod_sub(P::load(r + i), p, c.q));
  });
}

template <class Isa>
void MontgomeryLaneField<Isa>::add_inplace(u64* r, const u64* b,
                                           std::size_t n) const noexcept {
  using namespace lanes;
  for_lanes<Isa>(q_, neg_q_inv_, n, [&]<class P>(const Ctx<P>& c, auto i) {
    P::store(r + i, mod_add<P>(P::load(r + i), P::load(b + i), c.q));
  });
}

template <class Isa>
void MontgomeryLaneField<Isa>::sub_from_scalar(u64 x, const u64* a, u64* out,
                                               std::size_t n) const noexcept {
  using namespace lanes;
  for_lanes<Isa>(q_, neg_q_inv_, n, [&]<class P>(const Ctx<P>& c, auto i) {
    P::store(out + i, P::mod_sub(P::set1(x), P::load(a + i), c.q));
  });
}

template <class Isa>
u64 MontgomeryLaneField<Isa>::dot(const u64* a, const u64* b,
                                  std::size_t n) const noexcept {
  using namespace lanes;
  using P = Prims<Isa>;
  const Ctx<P> c(q_, neg_q_inv_);
  auto acc = P::set1(0);
  std::size_t i = 0;
  for (; i + P::kLanes <= n; i += P::kLanes) {
    acc = mod_add<P>(acc, mont_mul(P::load(a + i), P::load(b + i), c), c.q);
  }
  u64 words[P::kLanes];
  P::store(words, acc);
  u64 sum = 0;
  for (const u64 w : words) sum = mod_add<Scalar>(sum, w, q_);
  const Ctx<Scalar> s(q_, neg_q_inv_);
  for (; i < n; ++i) sum = mod_add<Scalar>(sum, mont_mul(a[i], b[i], s), s.q);
  return sum;
}

template <class Isa>
void MontgomeryLaneField<Isa>::lagrange_block(const u64* nodes,
                                              const u64* inv_w,
                                              std::size_t count,
                                              const u64* xs,
                                              std::size_t width,
                                              u64* out) const noexcept {
  using namespace lanes;
  using P = Prims<Isa>;
  // Two vectors per sweep keep four independent product chains in
  // flight, enough to hide the latency of one REDC chain.
  constexpr std::size_t kGroup = 2 * P::kLanes;
  const Ctx<P> c(q_, neg_q_inv_);
  std::size_t b = 0;
  for (; b + kGroup <= width; b += kGroup) {
    lagrange_cols<2>(nodes, inv_w, count, xs + b, out + b, width, r1_, c);
  }
  for (; b + P::kLanes <= width; b += P::kLanes) {
    lagrange_cols<1>(nodes, inv_w, count, xs + b, out + b, width, r1_, c);
  }
  const Ctx<Scalar> s(q_, neg_q_inv_);
  for (; b < width; ++b) {
    lagrange_cols<1>(nodes, inv_w, count, xs + b, out + b, width, r1_, s);
  }
}

template <class Isa>
void MontgomeryLaneField<Isa>::yates_level(const YatesStep* program,
                                           std::size_t steps, const u64* in,
                                           std::size_t s, u64* out,
                                           std::size_t t, std::size_t blocks,
                                           std::size_t n) const noexcept {
  using namespace lanes;
  using P = Prims<Isa>;
  // Two vectors per step halve the program's dispatch and keep two
  // independent sums per output row in flight.
  constexpr std::size_t kGroup = 2 * P::kLanes;
  const YatesStep* end = program + steps;
  const Ctx<P> c(q_, neg_q_inv_);
  const Ctx<Scalar> sc(q_, neg_q_inv_);
  for (std::size_t p = 0; p < blocks; ++p) {
    const u64* src = in + p * s * n;
    u64* dst = out + p * t * n;
    std::size_t i = 0;
    for (; i + kGroup <= n; i += kGroup) {
      yates_cols<2>(program, end, src + i, dst + i, n, c);
    }
    for (; i + P::kLanes <= n; i += P::kLanes) {
      yates_cols<1>(program, end, src + i, dst + i, n, c);
    }
    for (; i < n; ++i) yates_cols<1>(program, end, src + i, dst + i, n, sc);
  }
}

template <class Isa>
void MontgomeryLaneField<Isa>::ntt_dif(u64* a, std::size_t n,
                                       NttTwiddles tw) const noexcept {
  if (n < kLanes) return ntt_dif_scalar(*this, a, n, tw);
  lanes::run_pass<false, lanes::Prims<Isa>>(q_, neg_q_inv_, a, n, tw);
}

template <class Isa>
void MontgomeryLaneField<Isa>::ntt_dit(u64* a, std::size_t n,
                                       NttTwiddles tw) const noexcept {
  if (n < kLanes) return ntt_dit_scalar(*this, a, n, tw);
  lanes::run_pass<true, lanes::Prims<Isa>>(q_, neg_q_inv_, a, n, tw);
}

}  // namespace camelot

// The batch members only: the constructor stays with the translation
// units that build lane fields, compiled without ISA flags.
#define CAMELOT_LANE_INSTANTIATE(Isa)                                        \
  using Lane##Isa = MontgomeryLaneField<Isa>;                                \
  template void Lane##Isa::mul_vec(const u64*, const u64*, u64*,             \
                                   std::size_t) const noexcept;              \
  template void Lane##Isa::scale_vec(const u64*, u64, u64*, std::size_t)     \
      const noexcept;                                                        \
  template void Lane##Isa::addmul_inplace(u64*, u64, const u64*, std::size_t) \
      const noexcept;                                                        \
  template void Lane##Isa::submul_inplace(u64*, u64, const u64*, std::size_t) \
      const noexcept;                                                        \
  template void Lane##Isa::add_inplace(u64*, const u64*, std::size_t)        \
      const noexcept;                                                        \
  template void Lane##Isa::sub_from_scalar(u64, const u64*, u64*,            \
                                           std::size_t) const noexcept;      \
  template u64 Lane##Isa::dot(const u64*, const u64*, std::size_t)           \
      const noexcept;                                                        \
  template void Lane##Isa::lagrange_block(const u64*, const u64*,           \
                                          std::size_t, const u64*,           \
                                          std::size_t, u64*) const noexcept; \
  template void Lane##Isa::yates_level(const YatesStep*, std::size_t,       \
                                       const u64*, std::size_t, u64*,        \
                                       std::size_t, std::size_t,             \
                                       std::size_t) const noexcept;          \
  template void Lane##Isa::ntt_dif(u64*, std::size_t, NttTwiddles)          \
      const noexcept;                                                        \
  template void Lane##Isa::ntt_dit(u64*, std::size_t, NttTwiddles)          \
      const noexcept;
