#include "poly/fast_div.hpp"

namespace camelot {

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
                                           const Field&, const NttTables*); \
  template void poly_divrem_fast<Field>(const Poly&, const Poly&,           \
                                        const Field&, Poly*, Poly*,         \
                                        const NttTables*);                  \
  template void poly_divrem_auto<Field>(const Poly&, const Poly&,           \
                                        const Field&, Poly*, Poly*,         \
                                        const NttTables*);

CAMELOT_FASTDIV_INSTANTIATE(PrimeField)
CAMELOT_FASTDIV_INSTANTIATE(MontgomeryField)
CAMELOT_FASTDIV_INSTANTIATE(MontgomeryAvx2Field)
CAMELOT_FASTDIV_INSTANTIATE(MontgomeryAvx512Field)
#undef CAMELOT_FASTDIV_INSTANTIATE

}  // namespace camelot
