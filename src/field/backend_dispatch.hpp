// One-stop lane dispatch for consumers of a resolved FieldBackend.
//
// Templated kernels (multipoint descent, Lagrange, Yates, Gao) pick
// their arithmetic by instantiating against a field class. Consumers
// holding a FieldOps store its resolved FieldBackend and visit
// through with_lane_field: the visitor is instantiated once per
// Montgomery field class (MontgomeryField and the two
// MontgomeryLaneField widths) and receives the matching wrapper over
// the shared Montgomery context.
//
// Only the *Montgomery-domain* lane sets are dispatched here.
// kPrimeDivision carries a different value representation (canonical
// words, not Montgomery domain), so call sites that support it keep
// their explicit division branch and consult this helper for the
// rest — rs/gao.cpp's remainder-sequence dispatch is the pattern.
#pragma once

#include <utility>

#include "field/field_ops.hpp"
#include "field/montgomery_lanes.hpp"

namespace camelot {

// Invoke fn with the lane wrapper matching `backend` over `m`:
// MontgomeryAvx512Field, MontgomeryAvx2Field, or the bare scalar
// context for kMontgomery (and kPrimeDivision, whose callers are
// expected to have branched already). `backend` must be a *resolved*
// backend (FieldOps::backend()); this helper does no runtime-support
// re-checking of its own.
template <class Fn>
decltype(auto) with_lane_field(FieldBackend backend, const MontgomeryField& m,
                               Fn&& fn) {
  switch (backend) {
    case FieldBackend::kMontgomeryAvx512:
      return std::forward<Fn>(fn)(MontgomeryAvx512Field(m));
    case FieldBackend::kMontgomeryAvx2:
      return std::forward<Fn>(fn)(MontgomeryAvx2Field(m));
    default:
      return std::forward<Fn>(fn)(m);
  }
}

// Lane helpers for with_lane_field visitors: the backend's batch
// kernel when it has one, the scalar loop otherwise (the plain
// MontgomeryField, e.g. for q >= 2^31). Same words either way.

// r += a
template <class F>
void vec_add(const F& f, u64* r, const u64* a, std::size_t n) {
  if constexpr (FieldHasBatchKernels<F>) {
    f.add_inplace(r, a, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) r[i] = f.add(r[i], a[i]);
  }
}

// r += s * a
template <class F>
void vec_addmul(const F& f, u64* r, u64 s, const u64* a, std::size_t n) {
  if constexpr (FieldHasBatchKernels<F>) {
    f.addmul_inplace(r, s, a, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) r[i] = f.add(r[i], f.mul(s, a[i]));
  }
}

// r = a o b (r may alias a)
template <class F>
void vec_mul(const F& f, const u64* a, const u64* b, u64* r, std::size_t n) {
  if constexpr (FieldHasBatchKernels<F>) {
    f.mul_vec(a, b, r, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) r[i] = f.mul(a[i], b[i]);
  }
}

// r = s * a (r may alias a)
template <class F>
void vec_scale(const F& f, const u64* a, u64 s, u64* r, std::size_t n) {
  if constexpr (FieldHasBatchKernels<F>) {
    f.scale_vec(a, s, r, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) r[i] = f.mul(a[i], s);
  }
}

}  // namespace camelot
