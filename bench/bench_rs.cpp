// E14 (part): Reed-Solomon encode/decode scaling (paper §2.3).
#include <benchmark/benchmark.h>

#include <random>

#include "field/primes.hpp"
#include "rs/gao.hpp"

namespace camelot {
namespace {

void BM_RsEncode(benchmark::State& state) {
  const auto e = static_cast<std::size_t>(state.range(0));
  PrimeField f(find_ntt_prime(4 * e, 20));
  ReedSolomonCode code(f, e / 3, e);
  std::mt19937_64 rng(1);
  Poly msg;
  msg.c.resize(e / 3 + 1);
  for (u64& v : msg.c) v = rng() % f.modulus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode(msg));
  }
}
BENCHMARK(BM_RsEncode)->Range(256, 8192);

void BM_GaoDecodeClean(benchmark::State& state) {
  const auto e = static_cast<std::size_t>(state.range(0));
  PrimeField f(find_ntt_prime(4 * e, 20));
  ReedSolomonCode code(f, e / 3, e);
  std::mt19937_64 rng(2);
  Poly msg;
  msg.c.resize(e / 3 + 1);
  for (u64& v : msg.c) v = rng() % f.modulus();
  auto cw = code.encode(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gao_decode(code, cw));
  }
}
BENCHMARK(BM_GaoDecodeClean)->Range(256, 4096);

void BM_GaoDecodeAtRadius(benchmark::State& state) {
  // Decoding with the maximum correctable number of errors.
  const auto e = static_cast<std::size_t>(state.range(0));
  PrimeField f(find_ntt_prime(4 * e, 20));
  ReedSolomonCode code(f, e / 3, e);
  std::mt19937_64 rng(3);
  Poly msg;
  msg.c.resize(e / 3 + 1);
  for (u64& v : msg.c) v = rng() % f.modulus();
  auto cw = code.encode(msg);
  for (std::size_t i = 0; i < code.decoding_radius(); ++i) {
    cw[i] = f.add(cw[i], 1 + rng() % (f.modulus() - 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(gao_decode(code, cw));
  }
}
BENCHMARK(BM_GaoDecodeAtRadius)->Range(256, 4096);

// Systematic encode: message symbols pass through verbatim, parity
// comes from the lazily built message subtree. Contrast with
// BM_RsEncode (full evaluation of a coefficient-form message).
void BM_RsEncodeSystematic(benchmark::State& state) {
  const auto e = static_cast<std::size_t>(state.range(0));
  PrimeField f(find_ntt_prime(4 * e, 20));
  ReedSolomonCode code(f, e / 3, e);
  std::mt19937_64 rng(5);
  std::vector<u64> symbols(e / 3 + 1);
  for (u64& v : symbols) v = rng() % f.modulus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode_systematic(symbols));
  }
}
BENCHMARK(BM_RsEncodeSystematic)->Range(256, 8192);

}  // namespace
}  // namespace camelot

BENCHMARK_MAIN();
