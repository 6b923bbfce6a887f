// Morgana's enchantment, now with weather and a real fleet.
//
// Default (no arguments): the classic in-process demo — two corrupted
// Knights are identified through a streaming broadcast, seven defeat
// the radius and the failure is detected, a staged re-broadcast heals
// it, a rate-limited round lands on the identical answer, and a lossy
// (erasure) broadcast is healed by selective repair: only the dropped
// symbols are re-prepared, and the verified count never changes.
//
// --shards=N turns the round table into a multi-process service: a
// ShardCoordinator forks N shardd workers, partitions the CRT primes
// across them, and runs the same job — mixed loss + corruption — over
// pipes. The assembled report is checked bit-for-bit against a
// single-process run of the identical job, and the per-shard scrapes,
// the coordinator scrape, and the merged fleet scrape are printed in
// delimited sections for the CI fleet-scrape gate to parse.
//
//   example_byzantine_round_table [--shards=N] [--loss=RATE]
//                                 [--shardd=PATH]
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>

#include "core/erasure_stream.hpp"
#include "core/proof_session.hpp"
#include "core/shard.hpp"
#include "core/symbol_stream.hpp"
#include "count/triangle_camelot.hpp"
#include "graph/brute.hpp"
#include "graph/generators.hpp"
#include "linalg/tensor.hpp"

namespace {

using namespace camelot;

// One graph, one problem, shared by both modes. The factory spec and
// the explicit construction must describe the same instance — the
// sharded golden check depends on it.
constexpr std::size_t kN = 14, kM = 35;
constexpr u64 kGraphSeed = 7;
constexpr const char* kSpec = "triangle:14:35:7";

int run_classic(double loss_rate) {
  Graph g = gnm(kN, kM, kGraphSeed);
  const u64 truth = count_triangles_brute(g);
  std::printf("graph: n=%zu m=%zu, true triangle count %llu\n", kN, kM,
              static_cast<unsigned long long>(truth));

  TriangleCountProblem problem(g, strassen_decomposition());
  ClusterConfig config;
  config.num_nodes = 12;
  config.redundancy = 2.0;  // buys a decoding radius of ~(d+1)/2 symbols

  std::puts("\n-- two corrupted Knights (within the decoding radius), "
            "streaming broadcast --");
  ByzantineAdversary two({3, 8}, ByzantineStrategy::kColludingPolynomial,
                         1337);
  ProofSession session(problem, config);
  RunReport report = session.run_streaming(AdversarialStreamingChannel(two));
  std::printf("success: %s\n", report.success ? "yes" : "no");
  if (report.success) {
    std::printf("verified triangles: %s\n",
                TriangleCountProblem::triangles_from_answer(report.answers[0])
                    .to_string()
                    .c_str());
    std::printf("traitors identified:");
    for (std::size_t node : session.implicated_nodes()) {
      std::printf(" knight-%zu", node);
    }
    std::puts("");
  }

  std::puts("\n-- seven corrupted Knights (beyond the radius) --");
  std::vector<std::size_t> many(7);
  std::iota(many.begin(), many.end(), std::size_t{0});
  ByzantineAdversary seven(many, ByzantineStrategy::kRandom, 4242);
  ProofSession siege(problem, config);
  RunReport bad = siege.run_streaming(AdversarialStreamingChannel(seven));
  std::printf("success: %s (expected: no — the computation failed and "
              "every node can tell)\n",
              bad.success ? "yes" : "no");
  for (const auto& pr : bad.per_prime) {
    std::printf("  prime %llu: decode=%s verify=%s\n",
                static_cast<unsigned long long>(pr.prime),
                pr.decode_status == DecodeStatus::kOk ? "ok" : "FAIL",
                pr.verified ? "ok" : "FAIL");
  }
  if (bad.success) return 1;  // success here would be a bug

  std::puts("\n-- staged recovery: re-broadcast on a clean channel --");
  // The Knights' prepared symbols are still in the session; only the
  // failed stages run again, prime by prime, each re-broadcast as a
  // one-chunk stream.
  for (std::size_t pi = 0; pi < siege.num_primes(); ++pi) {
    siege.transport_prime(pi, LosslessStreamingChannel());
    siege.decode_prime(pi);
    siege.verify_prime(pi);
    siege.recover_prime(pi);
  }
  RunReport healed = siege.report();
  std::printf("success after re-transport: %s, triangles %s\n",
              healed.success ? "yes" : "no",
              healed.success
                  ? TriangleCountProblem::triangles_from_answer(
                        healed.answers[0])
                        .to_string()
                        .c_str()
                  : "?");
  if (!healed.success) return 1;

  std::puts("\n-- congested round table: at most 16 symbols per round --");
  // Rate limiting composes with corruption: Morgana's two Knights
  // corrupt a broadcast that trickles out 16 symbols per poll. Only
  // the delivery schedule changes — the answer (and the traitor list)
  // is bit-identical to the unthrottled run.
  AdversarialStreamingChannel dark(two);
  RateLimitedStreamingChannel congested(/*symbols_per_poll=*/16, &dark);
  ProofSession throttled(problem, config);
  RunReport trickle = throttled.run_streaming(congested);
  std::printf("success: %s, answers match unthrottled run: %s\n",
              trickle.success ? "yes" : "no",
              trickle.success && trickle.answers[0] == report.answers[0]
                  ? "yes"
                  : "no");
  if (!trickle.success || trickle.answers[0] != report.answers[0]) return 1;

  std::printf("\n-- stormy broadcast: %.0f%% of symbols lost per round, "
              "Morgana still corrupting --\n",
              loss_rate * 100.0);
  // Erasure loss composes with corruption: dropped chunks trigger
  // selective repair (only the missing positions are re-prepared),
  // while the corrupted survivors are still corrected and attributed.
  ErasureStreamingChannel stormy(LossSpec{loss_rate, 2024}, &dark);
  ProofSession weathered(problem, config);
  RunReport storm = weathered.run_streaming(stormy);
  std::size_t repair_rounds = 0, repaired = 0;
  for (const auto& pr : storm.per_prime) {
    repair_rounds += pr.repair_rounds;
    repaired += pr.repaired_symbols;
  }
  std::printf("success: %s, repair rounds %zu, symbols re-shipped %zu, "
              "answers match clear-sky run: %s\n",
              storm.success ? "yes" : "no", repair_rounds, repaired,
              storm.success && storm.answers[0] == report.answers[0]
                  ? "yes"
                  : "no");
  return storm.success && storm.answers[0] == report.answers[0] ? 0 : 1;
}

int run_sharded(std::size_t num_shards, double loss_rate,
                const std::string& shardd_path) {
  ShardJob job;
  job.problem_spec = kSpec;
  job.config.num_nodes = 12;
  job.config.redundancy = 2.0;
  job.config.num_threads = 1;
  // The answer bound only needs two CRT primes; force five so every
  // worker in a small fleet owns real traffic (the per-shard
  // bandwidth gauges in the fleet scrape stay non-zero).
  job.config.num_primes = 5;
  job.loss_rate = loss_rate;
  job.loss_seed = 2024;
  job.adversary = true;
  job.corrupt_nodes = {3, 8};
  job.strategy = ByzantineStrategy::kColludingPolynomial;
  job.adversary_seed = 1337;

  std::printf("-- sharded round table: %zu worker processes, %.0f%% loss, "
              "two corrupted Knights --\n",
              num_shards, loss_rate * 100.0);

  ShardOptions options;
  options.num_shards = num_shards;
  options.shardd_path = shardd_path;
  ShardCoordinator fleet(options);
  const RunReport sharded = fleet.run(job);
  std::printf("sharded success: %s\n", sharded.success ? "yes" : "no");
  if (!sharded.success) return 1;
  std::printf("verified triangles: %s\n",
              TriangleCountProblem::triangles_from_answer(sharded.answers[0])
                  .to_string()
                  .c_str());

  // Golden check: the same job in one process, same sequential driver.
  Graph g = gnm(kN, kM, kGraphSeed);
  TriangleCountProblem problem(g, strassen_decomposition());
  ByzantineAdversary adversary(job.corrupt_nodes, job.strategy,
                               job.adversary_seed);
  AdversarialStreamingChannel dark(adversary);
  ErasureStreamingChannel stormy(LossSpec{job.loss_rate, job.loss_seed},
                                 &dark);
  ProofSession session(problem, job.config);
  for (std::size_t pi = 0; pi < session.num_primes(); ++pi) {
    session.run_prime_streaming(pi, stormy);
  }
  const RunReport single = session.report();
  bool identical = single.success == sharded.success &&
                   single.answers == sharded.answers &&
                   single.per_prime.size() == sharded.per_prime.size();
  std::size_t repair_rounds = 0;
  for (std::size_t pi = 0; identical && pi < single.per_prime.size(); ++pi) {
    const auto& a = single.per_prime[pi];
    const auto& b = sharded.per_prime[pi];
    identical = a.prime == b.prime && a.decode_status == b.decode_status &&
                a.verified == b.verified &&
                a.answer_residues == b.answer_residues &&
                a.corrected_symbols == b.corrected_symbols &&
                a.implicated_nodes == b.implicated_nodes &&
                a.repair_rounds == b.repair_rounds &&
                a.repaired_symbols == b.repaired_symbols;
    repair_rounds += b.repair_rounds;
  }
  for (std::size_t j = 0; identical && j < single.node_stats.size(); ++j) {
    identical = single.node_stats[j].symbols_computed ==
                sharded.node_stats[j].symbols_computed;
  }
  std::printf("bit-identical to single-process run: %s "
              "(repair rounds across primes: %zu)\n",
              identical ? "yes" : "no", repair_rounds);
  if (!identical) return 1;

  // Scrape sections, delimited for the CI fleet-scrape gate: every
  // per-shard JSON, the coordinator's own JSON, the merged fleet JSON
  // (whose histogram bins must equal the element-wise sum of the
  // others), and the merged Prometheus rendering with the per-shard
  // bandwidth gauges.
  const obs::Registry::Snapshot coordinator = fleet.metrics().snapshot();
  const obs::Registry::Snapshot merged = fleet.fleet_snapshot();
  const std::vector<std::string>& scrapes = fleet.last_shard_scrapes();
  for (std::size_t i = 0; i < scrapes.size(); ++i) {
    std::printf("=== shard %zu obs json ===\n%s", i, scrapes[i].c_str());
  }
  std::printf("=== coordinator obs json ===\n%s",
              obs::render_json(coordinator).c_str());
  std::printf("=== fleet obs json ===\n%s",
              obs::render_json(merged).c_str());
  std::printf("=== fleet prometheus ===\n%s",
              obs::render_prometheus(merged).c_str());
  std::puts("=== end ===");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t num_shards = 0;
  double loss_rate = 0.08;
  std::string shardd_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--shards=", 9) == 0) {
      num_shards = std::strtoull(arg + 9, nullptr, 10);
    } else if (std::strncmp(arg, "--loss=", 7) == 0) {
      loss_rate = std::strtod(arg + 7, nullptr);
    } else if (std::strncmp(arg, "--shardd=", 9) == 0) {
      shardd_path = arg + 9;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--shards=N] [--loss=RATE] [--shardd=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  return num_shards > 0 ? run_sharded(num_shards, loss_rate, shardd_path)
                        : run_classic(loss_rate);
}
