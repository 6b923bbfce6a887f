#include "apps/csp2.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "count/form62_block.hpp"
#include "field/crt.hpp"
#include "field/primes.hpp"
#include "poly/multipoint.hpp"

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
  // One coefficient interpolation per block of points, shared by the
  // circuits of every weight point w0 = 0..m.
  Csp2Evaluator(const FieldOps& f, const Csp2Problem& p,
                const TrilinearDecomposition& dec, unsigned t, u64 rank,
                std::size_t num_weights)
      : Evaluator(f),
        coefficients_(dec, t, f),
        degree_step_(3 * (rank - 1) + 1) {
    circuits_.reserve(num_weights);
    for (std::size_t w0 = 0; w0 < num_weights; ++w0) {
      circuits_.emplace_back(p.build_input(w0, field_), f);
    }
  }

  u64 eval(u64 x0) override { return evaluate_points({&x0, 1})[0]; }

  std::vector<u64> evaluate_points(std::span<const u64> xs) override {
    const MontgomeryField& m = ops_.mont();
    std::vector<u64> out(xs.size(), 0);
    Form62Blocks blocks;
    std::vector<u64> scratch, term(kPointBlock), step(kPointBlock);
    for (std::size_t lo = 0; lo < xs.size(); lo += kPointBlock) {
      const std::span<const u64> block =
          xs.subspan(lo, std::min(kPointBlock, xs.size() - lo));
      coefficients_.interpolate(block, blocks);
      for (std::size_t b = 0; b < block.size(); ++b) {
        step[b] = m.pow(m.from_u64(block[b]), degree_step_);
      }
      // P(x0) = sum_{w0} x0^{w0 (d0+1)} P_{w0}(x0), by Horner.
      u64* acc = out.data() + lo;
      for (std::size_t w0 = circuits_.size(); w0-- > 0;) {
        circuits_[w0].evaluate(blocks, term.data(), scratch);
        for (std::size_t b = 0; b < block.size(); ++b) {
          acc[b] = m.add(m.mul(acc[b], step[b]), term[b]);
        }
      }
    }
    m.from_mont_inplace(out);
    return out;
  }

 private:
  Form62Coefficients coefficients_;
  u64 degree_step_;  // d0 + 1
  std::vector<Form62BlockCircuit> circuits_;
};

}  // namespace

std::unique_ptr<Evaluator> Csp2Problem::make_evaluator(
    const FieldOps& f) const {
  return std::make_unique<Csp2Evaluator>(f, *this, dec_, t_, rank_,
                                         inst_.constraints.size() + 1);
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
