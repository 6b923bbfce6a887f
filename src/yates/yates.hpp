// Classical Yates's algorithm (paper §3.1).
//
// Multiplies an s^k vector x by the Kronecker power A^{(x)k} of a
// small t x s matrix A in O((s^{k+1} + t^{k+1}) k) operations, one
// digit (nested sum) at a time — eq. (5).
//
// Index convention used throughout this library: an index
// j in [s^k] is read as k digits j_1 j_2 ... j_k in base s with j_1
// MOST significant (j = j_1 s^{k-1} + ... + j_k). Digits are 0-based.
#pragma once

#include <span>
#include <vector>

#include "field/field.hpp"
#include "field/montgomery.hpp"
#include "field/montgomery_avx512.hpp"
#include "field/montgomery_simd.hpp"

namespace camelot {

// y = (A^{(x)k}) x, where `base` is the t_dim x s_dim matrix A in
// row-major order (field elements), and x has s_dim^k entries.
// Returns t_dim^k entries. The MontgomeryField overload expects base
// and x in the Montgomery domain and returns domain values (each
// output entry is a sum of products with exactly one weight factor
// per level, so the representation is preserved level by level).
// The SIMD overloads run the suffix push loops on u64 lanes (4 for
// AVX2, 8 for AVX-512) — the hot path of batched proof evaluation
// (Evaluator::evaluate_points over count/ problems) — with
// bit-identical output.
//
// `batch` transforms that many vectors at once: x holds s_dim^k rows
// of `batch` columns (entry j of column c at j * batch + c) and the
// result holds t_dim^k rows laid out the same way. Column c equals
// the batch = 1 transform of column c; the column index is the
// innermost digit, so each push runs over suffix * batch words.
std::vector<u64> yates_apply(const PrimeField& f, std::span<const u64> base,
                             std::size_t t_dim, std::size_t s_dim,
                             std::span<const u64> x, unsigned k,
                             std::size_t batch = 1);
std::vector<u64> yates_apply(const MontgomeryField& f,
                             std::span<const u64> base, std::size_t t_dim,
                             std::size_t s_dim, std::span<const u64> x,
                             unsigned k, std::size_t batch = 1);
std::vector<u64> yates_apply(const MontgomeryAvx2Field& f,
                             std::span<const u64> base, std::size_t t_dim,
                             std::size_t s_dim, std::span<const u64> x,
                             unsigned k, std::size_t batch = 1);
std::vector<u64> yates_apply(const MontgomeryAvx512Field& f,
                             std::span<const u64> base, std::size_t t_dim,
                             std::size_t s_dim, std::span<const u64> x,
                             unsigned k, std::size_t batch = 1);

// Reference implementation by the defining sum (3): O((st)^k k) — used
// only for differential testing.
std::vector<u64> yates_apply_naive(const PrimeField& f,
                                   std::span<const u64> base,
                                   std::size_t t_dim, std::size_t s_dim,
                                   std::span<const u64> x, unsigned k);

}  // namespace camelot
