// E14 (part): fast polynomial arithmetic scaling (paper §2.2).
#include <benchmark/benchmark.h>

#include <numeric>
#include <random>

#include "field/primes.hpp"
#include "poly/fast_div.hpp"
#include "poly/lagrange.hpp"
#include "poly/multipoint.hpp"
#include "poly/ntt.hpp"
#include "poly/poly.hpp"

namespace camelot {
namespace {

Poly random_poly(std::size_t deg, const PrimeField& f, u64 seed) {
  std::mt19937_64 rng(seed);
  Poly p;
  p.c.resize(deg + 1);
  for (u64& v : p.c) v = rng() % f.modulus();
  return p;
}

void BM_MulSchoolbook(benchmark::State& state) {
  PrimeField f(find_ntt_prime(1 << 20, 20));
  const auto n = static_cast<std::size_t>(state.range(0));
  Poly a = random_poly(n, f, 1), b = random_poly(n, f, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(poly_mul_schoolbook(a, b, f));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_MulSchoolbook)->Range(64, 1024)->Complexity();

void BM_MulKaratsuba(benchmark::State& state) {
  PrimeField f(find_ntt_prime(1 << 20, 20));
  const auto n = static_cast<std::size_t>(state.range(0));
  Poly a = random_poly(n, f, 1), b = random_poly(n, f, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(poly_mul_karatsuba(a, b, f));
  }
}
BENCHMARK(BM_MulKaratsuba)->Range(64, 4096);

void BM_MulNtt(benchmark::State& state) {
  PrimeField f(find_ntt_prime(1 << 20, 20));
  const auto n = static_cast<std::size_t>(state.range(0));
  Poly a = random_poly(n, f, 1), b = random_poly(n, f, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ntt_convolve(a.c, b.c, f));
  }
}
BENCHMARK(BM_MulNtt)->Range(64, 16384);

void BM_MulNttMontDomain(benchmark::State& state) {
  // Domain-to-domain convolution: what a Montgomery-resident pipeline
  // pays once the boundary conversions are amortized away.
  PrimeField f(find_ntt_prime(1 << 20, 20));
  MontgomeryField m(f);
  const auto n = static_cast<std::size_t>(state.range(0));
  Poly a = random_poly(n, f, 1), b = random_poly(n, f, 2);
  const std::vector<u64> am = m.to_mont_vec(a.c), bm = m.to_mont_vec(b.c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ntt_convolve(am, bm, m));
  }
}
BENCHMARK(BM_MulNttMontDomain)->Range(64, 16384);

void BM_DivremSchoolbook(benchmark::State& state) {
  // Classical row elimination at the tree-descent shape (deg a =
  // 2 deg b - 1): the quadratic baseline of the fast division.
  PrimeField f(find_ntt_prime(1 << 20, 20));
  const auto n = static_cast<std::size_t>(state.range(0));
  Poly a = random_poly(2 * n - 1, f, 1), b = random_poly(n, f, 2);
  for (auto _ : state) {
    Poly q, r;
    poly_divrem(a, b, f, &q, &r);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_DivremSchoolbook)->Range(256, 4096)->Complexity();

void BM_DivremFast(benchmark::State& state) {
  // Newton-inverse reverse-trick division on the same operands —
  // fastdiv_ns in BENCH_field.json tracks the committed ratio.
  PrimeField f(find_ntt_prime(1 << 20, 20));
  const auto n = static_cast<std::size_t>(state.range(0));
  Poly a = random_poly(2 * n - 1, f, 1), b = random_poly(n, f, 2);
  for (auto _ : state) {
    Poly q, r;
    poly_divrem_fast(a, b, f, &q, &r);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_DivremFast)->Range(256, 16384)->Complexity();

void BM_InverseSeries(benchmark::State& state) {
  // The Newton iteration on its own (what a fast division pays before
  // its two truncated products).
  PrimeField f(find_ntt_prime(1 << 20, 20));
  const auto n = static_cast<std::size_t>(state.range(0));
  Poly a = random_poly(n, f, 3);
  a.c[0] = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(poly_inverse_series(a, n, f));
  }
}
BENCHMARK(BM_InverseSeries)->Range(256, 16384);

void BM_MultipointEvaluate(benchmark::State& state) {
  PrimeField f(find_ntt_prime(1 << 20, 20));
  const auto n = static_cast<std::size_t>(state.range(0));
  Poly p = random_poly(n - 1, f, 3);
  std::vector<u64> pts(n);
  std::iota(pts.begin(), pts.end(), u64{1});
  // One-shot, tree build included, as every caller runs it.
  for (auto _ : state) {
    benchmark::DoNotOptimize(multipoint_evaluate(p, pts, f));
  }
}
BENCHMARK(BM_MultipointEvaluate)->Range(64, 16384);

void BM_Interpolate(benchmark::State& state) {
  PrimeField f(find_ntt_prime(1 << 20, 20));
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(4);
  std::vector<u64> pts(n), vals(n);
  std::iota(pts.begin(), pts.end(), u64{1});
  for (u64& v : vals) v = rng() % f.modulus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(interpolate(pts, vals, f));
  }
}
BENCHMARK(BM_Interpolate)->Range(64, 16384);

void BM_LagrangeBasisConsecutive(benchmark::State& state) {
  // The factorial trick of §5.3: all R basis values in O(R).
  PrimeField f(find_ntt_prime(1 << 20, 20));
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lagrange_basis_consecutive(1, n, 999'983, f));
  }
}
BENCHMARK(BM_LagrangeBasisConsecutive)->Range(256, 65536);

void BM_LagrangeBasisCached(benchmark::State& state) {
  // Batched-evaluation shape: the factorial cache is built once and
  // each point costs one inversion-free prefix/suffix sweep.
  PrimeField f(find_ntt_prime(1 << 20, 20));
  const auto n = static_cast<std::size_t>(state.range(0));
  ConsecutiveLagrange cache(1, n, f);
  u64 x0 = 999'983;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.basis_mont(x0));
    ++x0;
  }
}
BENCHMARK(BM_LagrangeBasisCached)->Range(256, 65536);

}  // namespace
}  // namespace camelot

BENCHMARK_MAIN();
