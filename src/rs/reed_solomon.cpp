#include "rs/reed_solomon.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "field/backend_dispatch.hpp"
#include "poly/fast_div.hpp"

namespace camelot {

namespace {

template <class F>
constexpr bool kCanonical = std::is_same_v<F, PrimeField>;

// Runs fn on the field class of the backend's value domain: canonical
// words under kPrimeDivision, the matching Montgomery lane set
// otherwise.
template <class Fn>
decltype(auto) with_domain_field(const FieldOps& ops, Fn&& fn) {
  if (ops.backend() == FieldBackend::kPrimeDivision) {
    return std::forward<Fn>(fn)(ops.prime());
  }
  return with_lane_field(ops.backend(), ops.mont(), std::forward<Fn>(fn));
}

std::vector<u64> to_domain(std::span<const u64> xs, const FieldOps& ops) {
  if (ops.backend() != FieldBackend::kPrimeDivision) {
    return ops.mont().to_mont_vec(xs);
  }
  std::vector<u64> out(xs.begin(), xs.end());
  for (u64& v : out) v = ops.prime().reduce(v);
  return out;
}

void to_canonical(std::vector<u64>& xs, const FieldOps& ops) {
  if (ops.backend() != FieldBackend::kPrimeDivision) {
    ops.mont().from_mont_inplace(xs);
  }
}

// prod_j (x - roots_j), by halving.
template <class F>
Poly vanishing(std::span<const u64> roots, const F& f) {
  if (roots.empty()) return Poly{{f.one()}};
  if (roots.size() == 1) return Poly::linear_root(roots[0], f);
  const std::size_t half = roots.size() / 2;
  return poly_mul(vanishing(roots.first(half), f),
                  vanishing(roots.subspan(half), f), f);
}

}  // namespace

ReedSolomonCode::ReedSolomonCode(const FieldOps& f, std::size_t degree_bound,
                                 std::size_t length)
    : ops_(f),
      degree_bound_(degree_bound),
      n_(std::bit_ceil(length)) {
  if (length == 0) {
    throw std::invalid_argument("ReedSolomonCode: no points");
  }
  if (degree_bound_ + 1 > length) {
    throw std::invalid_argument(
        "ReedSolomonCode: dimension d+1 exceeds code length e");
  }
  if (std::countr_zero(n_) > field().two_adicity()) {
    throw std::invalid_argument(
        "ReedSolomonCode: Z_q has no primitive bit_ceil(e)-th root of "
        "unity");
  }
  with_domain_field(ops_, [&](const auto& fd) { build(fd, length); });
}

template <class F>
void ReedSolomonCode::build(const F& f, std::size_t length) {
  const std::size_t n = n_;
  const u64 w = f.root_of_unity(std::countr_zero(n));
  std::vector<u64> powers(n);
  powers[0] = f.one();
  for (std::size_t k = 1; k < n; ++k) powers[k] = f.mul(powers[k - 1], w);
  points_.assign(powers.begin(), powers.begin() + static_cast<long>(length));
  to_canonical(points_, ops_);

  // h(-t) = 1 / (1 - w^(-t)) with h(0) = 0: correlating against h is
  // convolving with this.
  h_hat_.assign(n, 0);
  if (n > 1) {
    std::vector<u64> den(n - 1);
    for (std::size_t t = 1; t < n; ++t) {
      den[t - 1] = f.sub(f.one(), powers[n - t]);
    }
    const std::vector<u64> inv = f.batch_inv(den);
    std::copy(inv.begin(), inv.end(), h_hat_.begin() + 1);
  }
  transform(h_hat_, false, f, /*spectrum=*/true);

  Poly word_complement;
  word_ = make_prefix(f, powers, length, &word_complement);
  if (degree_bound_ + 1 < length) {
    message_ = make_prefix(f, powers, degree_bound_ + 1, nullptr);
  }

  Poly xn_minus_one;
  xn_minus_one.c.assign(n + 1, 0);
  xn_minus_one.c[0] = f.neg(f.one());
  xn_minus_one.c[n] = f.one();
  const NttTables* tables = nullptr;
  if constexpr (!kCanonical<F>) tables = ops_.ntt_tables().get();
  poly_divrem_auto(xn_minus_one, word_complement, f, &g0_, nullptr, tables);
}

template <class F>
ReedSolomonCode::Prefix ReedSolomonCode::make_prefix(
    const F& f, const std::vector<u64>& powers, std::size_t size,
    Poly* complement) const {
  const std::size_t n = n_;
  Prefix p;
  p.size = size;
  // Z_Mbar over the complement [size, n); degree n - size < n.
  Poly zbar = vanishing(std::span<const u64>(powers).subspan(size), f);
  if (size < n) {
    std::vector<u64> zv = zbar.c;
    std::vector<u64> dzv = poly_derivative(zbar, f).c;
    zv.resize(n, 0);
    dzv.resize(n, 0);
    transform(zv, false, f);
    transform(dzv, false, f);
    const u64 n_dom = f.from_u64(n);
    const u64 n_inv = f.inv(n_dom);
    // 1 / Z_M'(w^i) = Z_Mbar(w^i) * w^i / n.
    p.weight.resize(size);
    for (std::size_t i = 0; i < size; ++i) {
      p.weight[i] = f.mul(f.mul(zv[i], powers[i]), n_inv);
    }
    // Z_M(w^k) * w^(-k) = n * w^(-2k) / Z_Mbar'(w^k).
    const std::vector<u64> inv =
        f.batch_inv(std::vector<u64>(dzv.begin() + static_cast<long>(size),
                                     dzv.end()));
    p.outer.resize(n - size);
    for (std::size_t k = size; k < n; ++k) {
      p.outer[k - size] =
          f.mul(f.mul(n_dom, powers[(2 * n - 2 * k) % n]), inv[k - size]);
    }
  }
  if (complement != nullptr) *complement = std::move(zbar);
  return p;
}

template <class F>
std::vector<u64> ReedSolomonCode::complete(const F& f, const Prefix& prefix,
                                           std::span<const u64> values) const {
  const std::size_t n = n_;
  const std::size_t s = prefix.size;
  std::vector<u64> c(n, 0);
  if (s < n) {
    // c_i = y_i / Z_M'(w^i), correlated with h, scaled by Z_M(w^k)w^(-k).
    vec_mul(f, values.data(), prefix.weight.data(), c.data(), s);
    transform(c, false, f, /*spectrum=*/true);
    vec_mul(f, c.data(), h_hat_.data(), c.data(), n);
    transform(c, true, f, /*spectrum=*/true);
    vec_mul(f, c.data() + s, prefix.outer.data(), c.data() + s, n - s);
  }
  std::copy(values.begin(), values.end(), c.begin());
  return c;
}

template <class F>
void ReedSolomonCode::transform(std::vector<u64>& a, bool inverse, const F& f,
                                bool spectrum) const {
  const NttTables* tables = nullptr;
  if constexpr (!kCanonical<F>) {
    tables = ops_.ntt_tables().get();
    if (tables != nullptr && tables->capacity() < a.size()) tables = nullptr;
  }
  if (spectrum) {
    if (inverse) {
      ntt_inverse_bitrev(a, f, tables);
    } else {
      ntt_forward_bitrev(a, f, tables);
    }
  } else if constexpr (kCanonical<F>) {
    ntt_inplace(a, inverse, f);
  } else if (tables != nullptr) {
    ntt_inplace(a, inverse, f, *tables);
  } else {
    ntt_inplace(a, inverse, f);
  }
}

std::vector<u64> ReedSolomonCode::encode(const Poly& message) const {
  if (message.degree() > static_cast<int>(degree_bound_)) {
    throw std::invalid_argument("ReedSolomonCode::encode: degree too high");
  }
  return evaluate_at_points(message);
}

std::vector<u64> ReedSolomonCode::evaluate_at_points(const Poly& p) const {
  std::vector<u64> out = evaluate_domain(Poly{to_domain(p.c, ops_)});
  to_canonical(out, ops_);
  return out;
}

std::vector<u64> ReedSolomonCode::evaluate_domain(const Poly& p) const {
  return with_domain_field(ops_, [&](const auto& f) {
    // w^n = 1, so folding mod x^n - 1 keeps every value.
    std::vector<u64> a(n_, 0);
    for (std::size_t i = 0; i < p.c.size(); ++i) {
      a[i & (n_ - 1)] = f.add(a[i & (n_ - 1)], p.c[i]);
    }
    transform(a, false, f);
    a.resize(length());
    return a;
  });
}

std::vector<u64> ReedSolomonCode::encode_systematic(
    std::span<const u64> message_symbols) const {
  if (message_symbols.size() != degree_bound_ + 1) {
    throw std::invalid_argument(
        "ReedSolomonCode::encode_systematic: need exactly d+1 symbols");
  }
  std::vector<u64> msg = to_domain(message_symbols, ops_);
  if (msg.size() < length()) {
    // The unique degree-<=d interpolant through the message positions,
    // at every position; the message positions keep the inputs.
    msg = with_domain_field(
        ops_, [&](const auto& f) { return complete(f, message_, msg); });
    msg.resize(length());
  }
  to_canonical(msg, ops_);
  return msg;
}

Poly ReedSolomonCode::interpolate_received(
    std::span<const u64> received) const {
  Poly p = interpolate_domain(to_domain(received, ops_));
  to_canonical(p.c, ops_);
  return p;
}

Poly ReedSolomonCode::interpolate_domain(std::span<const u64> word) const {
  if (word.size() != length()) {
    throw std::invalid_argument("ReedSolomonCode: received length mismatch");
  }
  return with_domain_field(ops_, [&](const auto& f) {
    Poly p{complete(f, word_, word)};
    transform(p.c, true, f);
    p.trim();
    return p;
  });
}

}  // namespace camelot
