#include "exp/partition_template.hpp"

#include <bit>
#include <stdexcept>

namespace camelot {

void Bivariate::mul_acc(const u64* a, const u64* b, u64* c, unsigned ne,
                        unsigned nb, const PrimeField& f) {
  const std::size_t cols = nb + 1;
  for (unsigned i1 = 0; i1 <= ne; ++i1) {
    for (unsigned j1 = 0; j1 <= nb; ++j1) {
      const u64 av = a[i1 * cols + j1];
      if (av == 0) continue;
      for (unsigned i2 = 0; i1 + i2 <= ne; ++i2) {
        for (unsigned j2 = 0; j1 + j2 <= nb; ++j2) {
          const u64 bv = b[i2 * cols + j2];
          if (bv == 0) continue;
          u64& slot = c[(i1 + i2) * cols + (j1 + j2)];
          slot = f.add(slot, f.mul(av, bv));
        }
      }
    }
  }
}

PartitionTemplateProblem::PartitionTemplateProblem(
    unsigned n_explicit, unsigned n_bits, std::size_t num_groups,
    std::vector<u64> t_values, BigInt answer_bound, std::string name)
    : ne_(n_explicit),
      nb_(n_bits),
      num_groups_(num_groups),
      t_values_(std::move(t_values)),
      answer_bound_(std::move(answer_bound)),
      name_(std::move(name)) {
  if (nb_ > 40 || ne_ > 40) {
    throw std::invalid_argument("PartitionTemplate: universe too large");
  }
  if (num_groups_ == 0 || t_values_.empty()) {
    throw std::invalid_argument("PartitionTemplate: no blocks");
  }
  for (std::size_t i = 0; i < t_values_.size(); ++i) {
    if (t_values_[i] < 1 || (i > 0 && t_values_[i] <= t_values_[i - 1])) {
      throw std::invalid_argument(
          "PartitionTemplate: t values must be ascending and >= 1");
    }
  }
  // d0 = |B| * 2^{|B|-1} (0 when B is empty: only the constant term).
  block_degree_ = nb_ == 0 ? 0 : static_cast<u64>(nb_) << (nb_ - 1);
}

ProofSpec PartitionTemplateProblem::spec() const {
  ProofSpec s;
  const u64 blocks = num_groups_ * t_values_.size();
  s.degree_bound = blocks * (block_degree_ + 1) - 1;
  // Nothing beyond distinctness of the evaluation points is required.
  s.min_modulus = std::max<u64>(block_degree_ + 2, ne_ + nb_ + 2);
  s.answer_count = blocks;
  s.answer_bound = answer_bound_;
  return s;
}

std::vector<u64> PartitionTemplateProblem::recover(
    const Poly& proof, const FieldOps& /*f*/) const {
  std::vector<u64> out;
  const u64 blocks = num_groups_ * t_values_.size();
  out.reserve(blocks);
  for (u64 b = 0; b < blocks; ++b) {
    out.push_back(proof.coeff(b * (block_degree_ + 1) + answer_offset()));
  }
  return out;
}

PartitionEvaluatorBase::PartitionEvaluatorBase(
    const FieldOps& f, const PartitionTemplateProblem& problem)
    : Evaluator(f), problem_(problem) {}

std::vector<u64> PartitionEvaluatorBase::bit_weights(u64 x0) const {
  std::vector<u64> w(problem_.n_bits());
  u64 cur = field_.reduce(x0);
  for (unsigned j = 0; j < problem_.n_bits(); ++j) {
    w[j] = cur;  // x0^{2^j}
    cur = field_.mul(cur, cur);
  }
  return w;
}

u64 PartitionEvaluatorBase::eval(u64 x0) {
  prepare(x0);
  const unsigned ne = problem_.n_explicit();
  const unsigned nb = problem_.n_bits();
  const std::size_t stride = Bivariate::stride(ne, nb);
  const std::size_t top_slot = stride - 1;  // coefficient (ne, nb)
  const auto& ts = problem_.t_values();
  const u64 t_max = ts.back();

  // One answer residue per (group, t) block, group-major.
  std::vector<u64> block_values(problem_.num_groups() * ts.size(), 0);
  std::vector<u64> pw(stride), next(stride);
  for (std::size_t group = 0; group < problem_.num_groups(); ++group) {
    const std::vector<u64> g = g_table(group);
    if (g.size() != (std::size_t{1} << ne) * stride) {
      throw std::logic_error("g_table: wrong size");
    }
    for (u64 y = 0; y < (u64{1} << ne); ++y) {
      const bool negative = ((ne - std::popcount(y)) % 2) == 1;
      const u64* gy = g.data() + y * stride;
      // Successive truncated powers g(Y)^p, extracting the (ne, nb)
      // coefficient whenever p is one of the requested part counts.
      std::copy(gy, gy + stride, pw.begin());
      std::size_t t_idx = 0;
      for (u64 p = 1; p <= t_max; ++p) {
        if (t_idx < ts.size() && ts[t_idx] == p) {
          u64& slot = block_values[problem_.block_index(group, t_idx)];
          slot = negative ? field_.sub(slot, pw[top_slot])
                          : field_.add(slot, pw[top_slot]);
          ++t_idx;
        }
        if (p == t_max) break;
        std::fill(next.begin(), next.end(), 0);
        Bivariate::mul_acc(pw.data(), gy, next.data(), ne, nb, field_);
        pw.swap(next);
      }
    }
  }
  // P(x0) = sum_b x0^{b (d0+1)} * block_values[b].
  const u64 step = field_.pow(field_.reduce(x0), problem_.block_degree() + 1);
  u64 acc = 0;
  for (std::size_t b = block_values.size(); b-- > 0;) {
    acc = field_.add(field_.mul(acc, step), block_values[b]);
  }
  return acc;
}

}  // namespace camelot
