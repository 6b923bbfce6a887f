// Type-erased field backend handle — the single seam through which
// the framework selects its arithmetic backend.
//
// PR 1 made every polynomial kernel a template over the backend
// (PrimeField or MontgomeryField); FieldOps erases that seam at the
// API layer. A handle carries one shared Montgomery context for a
// prime (plus optional NTT twiddle tables, see FieldCache), and a
// FieldBackend tag saying which arithmetic pipeline the decode/verify
// stages should instantiate. Consumers that used to pick between a
// plain method and its *_mont twin now take a FieldOps and follow the
// backend it names; Montgomery is the default everywhere.
//
// The handle is a value type (two shared_ptrs + a tag): copy it
// freely. Hot kernels still copy the underlying MontgomeryField
// by value into registers exactly as before.
#pragma once

#include <memory>

#include "field/montgomery.hpp"

namespace camelot {

class NttTables;

enum class FieldBackend {
  // Montgomery-domain pipeline (two 64x64 multiplies + shift per mul).
  kMontgomery,
  // Canonical representatives, hardware-division reduction. Kept for
  // A/B measurement and as the reference in differential tests.
  kPrimeDivision,
  // Montgomery-domain pipeline with the hot batch kernels running on
  // AVX2 4xu64 lanes (field/montgomery_lanes.hpp). Values are the same
  // Montgomery-domain u64s as kMontgomery and every kernel computes
  // bit-identical results; only the instruction mix differs.
  // Requesting it constructs a handle that *resolves* at runtime:
  // without AVX2, with CAMELOT_FORCE_SCALAR set, or for primes the
  // lanes do not implement (q >= 2^31 or q == 2; the framework plans
  // its CRT primes just below 2^31 whenever they fit), the handle
  // silently degrades to kMontgomery, so it is always safe to ask for.
  kMontgomeryAvx2,
  // The same pipeline on AVX-512 8xu64 lanes
  // (field/montgomery_lanes.hpp). Resolution degrades a request to
  // kMontgomeryAvx2 when the CPU lacks AVX-512F/DQ or when
  // CAMELOT_FORCE_AVX2 is set (and onward as above), and straight to
  // kMontgomery for q >= 2^31 or q == 2.
  kMontgomeryAvx512,
};

// True iff this process can run the AVX2 kernels: the CPU reports
// AVX2 *and* the CAMELOT_FORCE_SCALAR environment override is not set
// (checked once; set it to any non-empty value other than "0" to pin
// every resolved handle to the scalar pipeline for testing).
bool simd_runtime_enabled() noexcept;

// True iff this process can run the AVX-512 kernels: the CPU reports
// AVX-512F and AVX-512DQ, and neither CAMELOT_FORCE_SCALAR nor
// CAMELOT_FORCE_AVX2 is set (CAMELOT_FORCE_AVX2 pins resolution to
// the 4-lane kernels for A/B measurement on AVX-512 hosts; same
// "non-empty and not exactly 0" parse as CAMELOT_FORCE_SCALAR).
bool simd512_runtime_enabled() noexcept;

// Raw CPUID bits, ignoring the environment overrides.
bool cpu_supports_avx2() noexcept;
bool cpu_supports_avx512() noexcept;      // AVX-512F + AVX-512DQ
bool cpu_supports_avx512ifma() noexcept;  // AVX-512IFMA52, host records only

// The fastest backend this process can run: kMontgomeryAvx512 when
// simd512_runtime_enabled(), then kMontgomeryAvx2 when
// simd_runtime_enabled(), kMontgomery otherwise.
FieldBackend best_backend() noexcept;

class FieldOps {
 public:
  // Implicit on purpose: legacy call sites pass a bare PrimeField
  // where a backend handle is expected and get a fresh (default
  // Montgomery) context. Hot paths should come through a FieldCache
  // so the context and twiddle tables are shared instead.
  FieldOps(const PrimeField& f,  // NOLINT(google-explicit-constructor)
           FieldBackend backend = FieldBackend::kMontgomery);

  FieldOps(std::shared_ptr<const MontgomeryField> mont,
           FieldBackend backend = FieldBackend::kMontgomery,
           std::shared_ptr<const NttTables> ntt = nullptr);

  u64 modulus() const noexcept { return mont_->modulus(); }
  // The *resolved* backend: a SIMD request comes back downgraded
  // (kMontgomeryAvx512 -> kMontgomeryAvx2 -> kMontgomery) when the
  // process cannot run the wider lanes or the prime is not a lane
  // prime (q >= 2^31 or q == 2).
  FieldBackend backend() const noexcept { return backend_; }
  // True iff the hot kernels run a lane-wide pipeline (AVX2 or
  // AVX-512). Consumers that need the exact lane set should branch on
  // backend() (see field/backend_dispatch.hpp).
  bool simd() const noexcept {
    return backend_ == FieldBackend::kMontgomeryAvx2 ||
           backend_ == FieldBackend::kMontgomeryAvx512;
  }

  // The canonical-representative view (always available).
  const PrimeField& prime() const noexcept { return mont_->base(); }
  // The Montgomery-domain view (always available; count/ evaluators
  // and the default decode pipeline run on it).
  const MontgomeryField& mont() const noexcept { return *mont_; }

  const std::shared_ptr<const MontgomeryField>& mont_ptr() const noexcept {
    return mont_;
  }
  // Shared twiddle tables for this prime, or nullptr when the handle
  // was built outside a FieldCache.
  const std::shared_ptr<const NttTables>& ntt_tables() const noexcept {
    return ntt_;
  }

  // Same prime and backend (twiddle tables are an optimization detail
  // and do not participate in identity).
  friend bool operator==(const FieldOps& a, const FieldOps& b) noexcept {
    return a.modulus() == b.modulus() && a.backend_ == b.backend_;
  }

 private:
  std::shared_ptr<const MontgomeryField> mont_;
  std::shared_ptr<const NttTables> ntt_;
  FieldBackend backend_;
};

}  // namespace camelot
