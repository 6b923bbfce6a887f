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

namespace camelot {

// y = (A^{(x)k}) x, where `base` is the t_dim x s_dim matrix A in
// row-major order (field elements), and x has s_dim^k entries.
// Returns t_dim^k entries, in f's domain: canonical for PrimeField,
// Montgomery-domain for the Montgomery fields (each output entry is a
// sum of products with exactly one weight factor per level, so the
// representation is preserved level by level). Instantiated in
// yates/yates.cpp for PrimeField, MontgomeryField and the two lane
// fields — the hot path of batched proof evaluation
// (Evaluator::evaluate_points over count/ problems). On the lane
// fields each level is one MontgomeryLaneField::yates_level call: the
// table is classified once into a program of adds (+1), subtracts
// (-1) and multiply-adds (other weights), and every output word is
// written once from sums kept in registers. PrimeField and
// MontgomeryField run the reference loop, a zero-filled output with
// one row push per nonzero weight. The three Montgomery field classes
// give the same words.
//
// `batch` transforms that many vectors at once: x holds s_dim^k rows
// of `batch` columns (entry j of column c at j * batch + c) and the
// result holds t_dim^k rows laid out the same way. Column c equals
// the batch = 1 transform of column c; the column index is the
// innermost digit, so each push runs over suffix * batch words.
template <class Field>
std::vector<u64> yates_apply(const Field& f, std::span<const u64> base,
                             std::size_t t_dim, std::size_t s_dim,
                             std::span<const u64> x, unsigned k,
                             std::size_t batch = 1);

// The same into `result`, with the levels before the last written to
// `scratch`; both are resized as needed, so a caller that keeps them
// across calls (a block evaluator) reuses their storage.
template <class Field>
void yates_apply(const Field& f, std::span<const u64> base,
                 std::size_t t_dim, std::size_t s_dim, std::span<const u64> x,
                 unsigned k, std::size_t batch, std::vector<u64>& result,
                 std::vector<u64>& scratch);

// Reference implementation by the defining sum (3): O((st)^k k) — used
// only for differential testing.
std::vector<u64> yates_apply_naive(const PrimeField& f,
                                   std::span<const u64> base,
                                   std::size_t t_dim, std::size_t s_dim,
                                   std::span<const u64> x, unsigned k);

}  // namespace camelot
