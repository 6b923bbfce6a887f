#include "field/field_ops.hpp"

#include <cstdlib>
#include <stdexcept>

#include "poly/ntt.hpp"

namespace camelot {

namespace {

// Both checks are evaluated once. This translation unit is compiled
// without ISA flags (only the lane units field/montgomery_avx2.cpp and
// field/montgomery_avx512.cpp get them), so the detection code itself
// runs on any x86-64.
bool detect_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool detect_avx512() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

bool detect_avx512ifma() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return detect_avx512() && __builtin_cpu_supports("avx512ifma");
#else
  return false;
#endif
}

// "Set" means non-empty and not exactly "0" — the shared parse for
// every CAMELOT_FORCE_* override.
bool env_flag_set(const char* name) noexcept {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

bool detect_runtime_enabled() noexcept {
  if (!detect_avx2()) return false;
  return !env_flag_set("CAMELOT_FORCE_SCALAR");
}

bool detect_512_runtime_enabled() noexcept {
  if (!detect_avx512()) return false;
  return !env_flag_set("CAMELOT_FORCE_SCALAR") &&
         !env_flag_set("CAMELOT_FORCE_AVX2");
}

// The downgrade ladder, applied once at handle construction so every
// consumer can branch on backend() alone. A lane request resolves to
// kMontgomery when q >= 2^31 or q == 2 (the lane kernels implement
// only the REDC-32 chain, and their constructors refuse wider
// moduli) or when no lanes can run (no AVX2, CAMELOT_FORCE_SCALAR
// set); kMontgomeryAvx512 steps down to kMontgomeryAvx2 when only the
// 8-lane set is out of reach (no AVX-512F/DQ, CAMELOT_FORCE_AVX2 set).
FieldBackend resolve(FieldBackend requested, u64 modulus) noexcept {
  if (requested != FieldBackend::kMontgomeryAvx2 &&
      requested != FieldBackend::kMontgomeryAvx512) {
    return requested;
  }
  if (modulus == 2 || (modulus >> 31) != 0) return FieldBackend::kMontgomery;
  if (requested == FieldBackend::kMontgomeryAvx512 &&
      simd512_runtime_enabled()) {
    return requested;
  }
  return simd_runtime_enabled() ? FieldBackend::kMontgomeryAvx2
                                : FieldBackend::kMontgomery;
}

}  // namespace

bool cpu_supports_avx2() noexcept {
  static const bool has = detect_avx2();
  return has;
}

bool cpu_supports_avx512() noexcept {
  static const bool has = detect_avx512();
  return has;
}

bool cpu_supports_avx512ifma() noexcept {
  static const bool has = detect_avx512ifma();
  return has;
}

bool simd_runtime_enabled() noexcept {
  static const bool enabled = detect_runtime_enabled();
  return enabled;
}

bool simd512_runtime_enabled() noexcept {
  static const bool enabled = detect_512_runtime_enabled();
  return enabled;
}

FieldBackend best_backend() noexcept {
  if (simd512_runtime_enabled()) return FieldBackend::kMontgomeryAvx512;
  return simd_runtime_enabled() ? FieldBackend::kMontgomeryAvx2
                                : FieldBackend::kMontgomery;
}

FieldOps::FieldOps(const PrimeField& f, FieldBackend backend)
    : mont_(std::make_shared<const MontgomeryField>(f)),
      backend_(resolve(backend, f.modulus())) {}

FieldOps::FieldOps(std::shared_ptr<const MontgomeryField> mont,
                   FieldBackend backend, std::shared_ptr<const NttTables> ntt)
    : mont_(std::move(mont)), ntt_(std::move(ntt)) {
  if (mont_ == nullptr) {
    throw std::invalid_argument("FieldOps: null Montgomery context");
  }
  backend_ = resolve(backend, mont_->modulus());
  if (ntt_ != nullptr && ntt_->modulus() != mont_->modulus()) {
    throw std::invalid_argument("FieldOps: twiddle table modulus mismatch");
  }
}

}  // namespace camelot
