#include "apps/csp2.hpp"

#include <random>
#include <stdexcept>

#include "field/crt.hpp"
#include "field/primes.hpp"
#include "poly/lagrange.hpp"
#include "poly/multipoint.hpp"
#include "yates/yates.hpp"

namespace camelot {

Csp2Instance Csp2Instance::random(unsigned num_vars, unsigned sigma,
                                  std::size_t num_constraints,
                                  double density, u64 seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution coin(density);
  Csp2Instance inst;
  inst.num_vars = num_vars;
  inst.sigma = sigma;
  for (std::size_t c = 0; c < num_constraints; ++c) {
    Csp2Constraint con;
    con.u = rng() % num_vars;
    do {
      con.v = rng() % num_vars;
    } while (con.v == con.u);
    con.allowed.resize(static_cast<std::size_t>(sigma) * sigma);
    for (char& a : con.allowed) a = coin(rng) ? 1 : 0;
    inst.constraints.push_back(std::move(con));
  }
  return inst;
}

namespace {

// Group of a variable (n/6 variables per group).
unsigned group_of(const Csp2Instance& inst, u32 var) {
  return var / (inst.num_vars / 6);
}

// Value of variable `var` under group-assignment index a (base sigma,
// digit = position within the group).
unsigned value_of(const Csp2Instance& inst, u32 var, u64 a) {
  const unsigned pos = var % (inst.num_vars / 6);
  return static_cast<unsigned>((a / ipow(inst.sigma, pos)) % inst.sigma);
}

// Lexicographically least pair (s, t), 1 <= s < t <= 6, covering both
// variable groups of the constraint (the paper's "type").
std::pair<int, int> constraint_type(unsigned gu, unsigned gv) {
  for (int s = 1; s <= 5; ++s) {
    for (int t = s + 1; t <= 6; ++t) {
      const bool u_in = gu + 1 == static_cast<unsigned>(s) ||
                        gu + 1 == static_cast<unsigned>(t);
      const bool v_in = gv + 1 == static_cast<unsigned>(s) ||
                        gv + 1 == static_cast<unsigned>(t);
      if (u_in && v_in) return {s, t};
    }
  }
  throw std::logic_error("constraint_type: unreachable");
}

}  // namespace

std::vector<u64> csp2_histogram_brute(const Csp2Instance& inst) {
  const u64 total = ipow(inst.sigma, inst.num_vars);
  if (total > 20'000'000) {
    throw std::invalid_argument("csp2 brute: sigma^n too large");
  }
  std::vector<u64> hist(inst.constraints.size() + 1, 0);
  std::vector<unsigned> value(inst.num_vars);
  for (u64 a = 0; a < total; ++a) {
    u64 rest = a;
    for (unsigned v = 0; v < inst.num_vars; ++v) {
      value[v] = static_cast<unsigned>(rest % inst.sigma);
      rest /= inst.sigma;
    }
    std::size_t sat = 0;
    for (const Csp2Constraint& c : inst.constraints) {
      if (c.allowed[value[c.u] * inst.sigma + value[c.v]]) ++sat;
    }
    ++hist[sat];
  }
  return hist;
}

Csp2Problem::Csp2Problem(Csp2Instance inst, TrilinearDecomposition dec)
    : inst_(std::move(inst)), dec_(std::move(dec)) {
  if (inst_.num_vars == 0 || inst_.num_vars % 6 != 0) {
    throw std::invalid_argument("Csp2Problem: need 6 | n");
  }
  group_size_ = ipow(inst_.sigma, inst_.num_vars / 6);
  t_ = kronecker_exponent(dec_.n0, std::max<std::size_t>(group_size_, 2));
  padded_ = ipow(dec_.n0, t_);
  rank_ = ipow(dec_.rank, t_);
  // Satisfied-count tables per pair.
  sat_counts_.assign(15, {});
  for (auto& tab : sat_counts_) {
    tab.assign(group_size_ * group_size_, 0);
  }
  for (const Csp2Constraint& c : inst_.constraints) {
    const unsigned gu = group_of(inst_, c.u), gv = group_of(inst_, c.v);
    const auto [s, t] = constraint_type(gu, gv);
    auto& tab = sat_counts_[form62_pair_index(s, t)];
    for (u64 as = 0; as < group_size_; ++as) {
      for (u64 at = 0; at < group_size_; ++at) {
        // Which of the two type slots holds each variable?
        const u64 a_for_u = gu + 1 == static_cast<unsigned>(s) ? as : at;
        const u64 a_for_v = gv + 1 == static_cast<unsigned>(s) ? as : at;
        const unsigned vu = value_of(inst_, c.u, a_for_u);
        const unsigned vv = value_of(inst_, c.v, a_for_v);
        if (c.allowed[vu * inst_.sigma + vv]) {
          ++tab[as * group_size_ + at];
        }
      }
    }
  }
}

Form62Input Csp2Problem::build_input(u64 w0, const PrimeField& f) const {
  Form62Input in;
  const std::size_t m = inst_.constraints.size();
  std::vector<u64> wpow(m + 1);
  wpow[0] = f.one();
  const u64 w = f.reduce(w0);
  for (std::size_t k = 1; k <= m; ++k) wpow[k] = f.mul(wpow[k - 1], w);
  for (std::size_t p = 0; p < 15; ++p) {
    Matrix mat(padded_, padded_);
    for (u64 a = 0; a < group_size_; ++a) {
      for (u64 b = 0; b < group_size_; ++b) {
        mat.at(a, b) = wpow[sat_counts_[p][a * group_size_ + b]];
      }
    }
    in.mats[p] = std::move(mat);
  }
  return in;
}

ProofSpec Csp2Problem::spec() const {
  const std::size_t m = inst_.constraints.size();
  const u64 d0 = 3 * (rank_ - 1);
  ProofSpec s;
  s.degree_bound = (m + 1) * (d0 + 1) - 1;
  s.min_modulus = std::max<u64>(rank_ + 1, m + 2);
  s.answer_count = m + 1;
  s.answer_bound =
      BigInt::from_u64(inst_.sigma).pow_u32(inst_.num_vars);
  return s;
}

namespace {

class Csp2Evaluator : public Evaluator {
 public:
  Csp2Evaluator(const FieldOps& f, const Csp2Problem& p,
                const TrilinearDecomposition& dec, unsigned t, u64 rank,
                std::size_t num_weights, std::size_t n_pad)
      : Evaluator(f),
        problem_(p),
        dec_(dec),
        t_(t),
        rank_(rank),
        n_pad_(n_pad) {
    alpha_table_ = dec_.alpha_mod(field_);
    beta_table_ = dec_.beta_mod(field_);
    gamma_table_ = dec_.gamma_mod(field_);
    // The 15 matrices per weight point, shared across evaluations.
    for (std::size_t w0 = 0; w0 < num_weights; ++w0) {
      inputs_.push_back(problem_.build_input(w0, field_));
    }
  }

  u64 eval(u64 x0) override {
    // Coefficient matrices, once per point (shared by all weights).
    std::vector<u64> lambda = lagrange_basis_consecutive(
        1, static_cast<std::size_t>(rank_), x0, field_);
    Matrix am = coeff_matrix(alpha_table_, lambda);
    Matrix bm = coeff_matrix(beta_table_, lambda);
    Matrix gm = coeff_matrix(gamma_table_, lambda);
    // P(x0) = sum_{w0} x0^{w0 (d0+1)} P_{w0}(x0).
    const u64 step =
        field_.pow(field_.reduce(x0), 3 * (rank_ - 1) + 1);
    u64 acc = 0;
    for (std::size_t w0 = inputs_.size(); w0-- > 0;) {
      acc = field_.add(field_.mul(acc, step),
                       form62_circuit_term(inputs_[w0], am, bm, gm, field_));
    }
    return acc;
  }

 private:
  Matrix coeff_matrix(const std::vector<u64>& table,
                      const std::vector<u64>& lambda) const {
    const std::size_t nn = dec_.n0 * dec_.n0;
    std::vector<u64> vec =
        yates_apply(field_, table, nn, dec_.rank, lambda, t_);
    Matrix out(n_pad_, n_pad_);
    for (u64 d = 0; d < n_pad_; ++d) {
      for (u64 e = 0; e < n_pad_; ++e) {
        out.at(d, e) = vec[interleave_pair_index(d, e, dec_.n0, t_)];
      }
    }
    return out;
  }

  const Csp2Problem& problem_;
  const TrilinearDecomposition& dec_;
  unsigned t_;
  u64 rank_;
  std::size_t n_pad_;
  std::vector<u64> alpha_table_, beta_table_, gamma_table_;
  std::vector<Form62Input> inputs_;
};

}  // namespace

std::unique_ptr<Evaluator> Csp2Problem::make_evaluator(
    const FieldOps& f) const {
  return std::make_unique<Csp2Evaluator>(f, *this, dec_, t_, rank_,
                                         inst_.constraints.size() + 1,
                                         padded_);
}

std::vector<u64> Csp2Problem::recover(const Poly& proof,
                                      const FieldOps& f) const {
  const std::size_t m = inst_.constraints.size();
  const u64 d0 = 3 * (rank_ - 1);
  const PrimeField& pf = f.prime();
  // Per weight point: X(w0) = sum_{r=1..R} P_{w0}(r), the dot product
  // of block w0 with the power sums of 1..R.
  const std::vector<u64> sums = range_power_sums(1, rank_, d0 + 1, f);
  std::vector<u64> xs(m + 1), values(m + 1);
  for (std::size_t w0 = 0; w0 <= m; ++w0) {
    const std::size_t off = w0 * (d0 + 1);
    u64 total = 0;
    for (u64 k = 0; k <= d0; ++k) {
      total = pf.add(total, pf.mul(proof.coeff(off + k), sums[k]));
    }
    xs[w0] = w0;
    values[w0] = total;
  }
  // Interpolate X(w) = sum_k hist_k w^k over the points 0..m.
  Poly hist = interpolate(xs, values, pf);
  std::vector<u64> out(m + 1);
  for (std::size_t k = 0; k <= m; ++k) out[k] = hist.coeff(k);
  return out;
}

std::vector<BigInt> csp2_histogram_form62(const Csp2Instance& inst,
                                          const TrilinearDecomposition& dec) {
  Csp2Problem problem(inst, dec);
  const std::size_t m = inst.constraints.size();
  const BigInt bound = BigInt::from_u64(inst.sigma).pow_u32(inst.num_vars);
  const std::size_t nprimes = crt_primes_needed(bound, 30);
  const std::vector<u64> primes =
      find_ntt_primes(std::max<u64>(u64{1} << 30, m + 2), 4, nprimes);
  std::vector<std::vector<u64>> residues(m + 1,
                                         std::vector<u64>(primes.size()));
  const unsigned t =
      kronecker_exponent(dec.n0, std::max<std::size_t>(
                                     ipow(inst.sigma, inst.num_vars / 6), 2));
  for (std::size_t pi = 0; pi < primes.size(); ++pi) {
    PrimeField f(primes[pi]);
    std::vector<u64> xs(m + 1), values(m + 1);
    for (std::size_t w0 = 0; w0 <= m; ++w0) {
      Form62Input in = problem.build_input(w0, f);
      xs[w0] = w0;
      values[w0] = form62_new_circuit(in, dec, t, f);
    }
    Poly hist = interpolate(xs, values, f);
    for (std::size_t k = 0; k <= m; ++k) {
      residues[k][pi] = hist.coeff(k);
    }
  }
  std::vector<BigInt> out;
  out.reserve(m + 1);
  for (std::size_t k = 0; k <= m; ++k) {
    out.push_back(crt_reconstruct(residues[k], primes));
  }
  return out;
}

}  // namespace camelot
