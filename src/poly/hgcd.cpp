#include "poly/hgcd.hpp"

namespace camelot {

// Explicit instantiations: every consumer links against these instead
// of re-expanding the templates per translation unit.
#define CAMELOT_HGCD_INSTANTIATE(Field)                                   \
  template void hgcd_detail::xgcd_partial<Field>(                         \
      const Poly&, const Poly&, int, const Field&, Poly*, Poly*, Poly*,   \
      const NttTables*, XgcdStats&, std::size_t);

CAMELOT_HGCD_INSTANTIATE(PrimeField)
CAMELOT_HGCD_INSTANTIATE(MontgomeryField)
CAMELOT_HGCD_INSTANTIATE(MontgomeryAvx2Field)
CAMELOT_HGCD_INSTANTIATE(MontgomeryAvx512Field)
#undef CAMELOT_HGCD_INSTANTIATE

}  // namespace camelot
