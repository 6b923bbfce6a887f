#include "poly/fast_div.hpp"

#include <atomic>
#include <cstdlib>

#include "obs/trace.hpp"

namespace camelot {

namespace {

// Default tuned on the BENCH_field.json fastdiv sweep: at divisor
// degree 256 the two truncated NTT products already beat the AVX2
// schoolbook elimination; below it the elimination's tiny constant
// wins.
constexpr std::size_t kDefaultCrossover = 256;

std::size_t env_default_crossover() {
  const char* env = std::getenv("CAMELOT_FASTDIV_CROSSOVER");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && v > 0) return static_cast<std::size_t>(v);
  }
  return kDefaultCrossover;
}

// 0 = "use the default/environment value" so a plain static init
// needs no env read at load time.
std::atomic<std::size_t>& crossover_override() {
  static std::atomic<std::size_t> value{0};
  return value;
}

}  // namespace

std::size_t fastdiv_crossover() noexcept {
  const std::size_t forced =
      crossover_override().load(std::memory_order_relaxed);
  if (forced != 0) return forced;
  static const std::size_t from_env = [] {
    const std::size_t v = env_default_crossover();
    CAMELOT_TRACE_MSG(obs::kTracePoly, "fastdiv crossover=%zu%s", v,
                      v == kDefaultCrossover ? "" : " (env override)");
    return v;
  }();
  return from_env;
}

void set_fastdiv_crossover(std::size_t divisor_degree) noexcept {
  crossover_override().store(divisor_degree, std::memory_order_relaxed);
}

// Explicit instantiations: every consumer links against these instead
// of re-expanding the templates per translation unit.
#define CAMELOT_FASTDIV_INSTANTIATE(Field)                                  \
  template std::vector<u64> poly_mul_low<Field>(                            \
      std::span<const u64>, std::span<const u64>, std::size_t,              \
      const Field&, const NttTables*);                                      \
  template std::vector<u64> poly_mul_middle<Field>(                         \
      std::span<const u64>, std::span<const u64>, std::size_t, std::size_t, \
      const Field&, const NttTables*);                                      \
  template Poly poly_inverse_series<Field>(const Poly&, std::size_t,        \
                                           const Field&, const NttTables*,  \
                                           const Poly*);                    \
  template void poly_divrem_fast<Field>(const Poly&, const Poly&,           \
                                        const Field&, Poly*, Poly*,         \
                                        const NttTables*, const Poly*);     \
  template void monic_rem_fast_inplace<Field>(                              \
      std::vector<u64>&, const std::vector<u64>&, const Poly&,              \
      const Field&, const NttTables*);                                      \
  template void poly_divrem_auto<Field>(const Poly&, const Poly&,           \
                                        const Field&, Poly*, Poly*,         \
                                        const NttTables*);                  \
  template void poly_xgcd_partial_fast<Field>(const Poly&, const Poly&,     \
                                              int, const Field&, Poly*,     \
                                              Poly*, Poly*,                 \
                                              const NttTables*);

CAMELOT_FASTDIV_INSTANTIATE(PrimeField)
CAMELOT_FASTDIV_INSTANTIATE(MontgomeryField)
CAMELOT_FASTDIV_INSTANTIATE(MontgomeryAvx2Field)
CAMELOT_FASTDIV_INSTANTIATE(MontgomeryAvx512Field)
#undef CAMELOT_FASTDIV_INSTANTIATE

}  // namespace camelot
