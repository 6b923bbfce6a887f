// Tests for the region/slab scratch allocator (core/arena.hpp):
// chunk placement and region growth, merge-on-free coalescing,
// alignment, the oversize fallback, ArenaScope binding semantics,
// ScratchAlloc's heap fallback, per-worker isolation under the
// ProofService pool, and the A/B guarantee — bit-identical session
// reports with the arena on and off across all three field backends.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "apps/conv3sum.hpp"
#include "apps/ov.hpp"
#include "core/arena.hpp"
#include "core/proof_service.hpp"
#include "core/proof_session.hpp"
#include "linalg/tensor.hpp"
#include "obs/metrics.hpp"

namespace camelot {
namespace {

// Small regions so growth/oversize paths trigger at test sizes.
constexpr std::size_t kTestRegion = 4096;

TEST(Arena, LazyConstructionAndBumpPlacement) {
  obs::Registry reg;
  Arena arena(&reg, kTestRegion);
  EXPECT_EQ(arena.region_count(), 0u);  // nothing until first allocate
  EXPECT_EQ(arena.bytes_reserved(), 0u);

  void* a = arena.allocate(100);
  void* b = arena.allocate(100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(arena.region_count(), 1u);
  EXPECT_EQ(arena.bytes_reserved(), kTestRegion);
  // Sequential placement: b sits just past a's rounded payload plus
  // one header.
  EXPECT_GT(b, a);
  EXPECT_EQ(arena.live_chunks(), 2u);
  arena.deallocate(b);
  arena.deallocate(a);
  EXPECT_EQ(arena.live_chunks(), 0u);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  // Regions persist for reuse.
  EXPECT_EQ(arena.region_count(), 1u);
}

TEST(Arena, PayloadsAre64ByteAligned) {
  obs::Registry reg;
  Arena arena(&reg, kTestRegion);
  for (std::size_t sz : {1u, 7u, 63u, 64u, 65u, 100u, 1000u}) {
    void* p = arena.allocate(sz);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % Arena::kAlignment, 0u)
        << "size " << sz;
    arena.deallocate(p);
  }
}

TEST(Arena, GrowsNewRegionsWhenFull) {
  obs::Registry reg;
  Arena arena(&reg, kTestRegion);
  std::vector<void*> blocks;
  // Each 1 KiB block + header; a 4 KiB region holds ~3 of them.
  for (int i = 0; i < 12; ++i) blocks.push_back(arena.allocate(1024));
  EXPECT_GT(arena.region_count(), 1u);
  EXPECT_EQ(arena.oversize_fallbacks(), 0u);
  const std::size_t grown = arena.region_count();
  for (void* p : blocks) arena.deallocate(p);
  // Steady state: the regions stay reserved and the next burst fits
  // without growing further.
  blocks.clear();
  for (int i = 0; i < 12; ++i) blocks.push_back(arena.allocate(1024));
  EXPECT_EQ(arena.region_count(), grown);
  for (void* p : blocks) arena.deallocate(p);
}

TEST(Arena, MergeOnFreeCoalescesNeighbours) {
  obs::Registry reg;
  Arena arena(&reg, kTestRegion);
  void* a = arena.allocate(256);
  void* b = arena.allocate(256);
  void* c = arena.allocate(256);
  // Exhaust the frontier so the next allocation must go through the
  // first-fit hole scan (bump placement always wins otherwise).
  void* filler = arena.allocate(3008);
  ASSERT_EQ(arena.region_count(), 1u);
  // Free the middle, then the left: they coalesce into one hole, so a
  // request bigger than either (but within their sum plus the
  // absorbed header) lands back at a's address instead of growing.
  arena.deallocate(b);
  arena.deallocate(a);
  void* big = arena.allocate(512);
  EXPECT_EQ(big, a);
  EXPECT_EQ(arena.region_count(), 1u);
  arena.deallocate(big);
  arena.deallocate(c);
  arena.deallocate(filler);
  // Everything freed: the frontier retreated to the region base, so
  // the next allocation is again the first chunk.
  void* fresh = arena.allocate(64);
  EXPECT_EQ(fresh, a);
  arena.deallocate(fresh);
}

TEST(Arena, OversizeRequestsFallBackUpstream) {
  obs::Registry reg;
  Arena arena(&reg, kTestRegion);
  void* small = arena.allocate(64);
  void* big = arena.allocate(2 * kTestRegion);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % Arena::kAlignment, 0u);
  EXPECT_EQ(arena.oversize_fallbacks(), 1u);
  EXPECT_EQ(reg.counter("camelot_arena_oversize_fallbacks_total").value(), 1u);
  // Oversize blocks are usable storage and tracked like any chunk.
  static_cast<std::uint8_t*>(big)[0] = 1;
  static_cast<std::uint8_t*>(big)[2 * kTestRegion - 1] = 2;
  EXPECT_EQ(arena.live_chunks(), 2u);
  arena.deallocate(big);
  EXPECT_EQ(arena.live_chunks(), 1u);
  arena.deallocate(small);
}

TEST(Arena, MarkAndReleaseAfterFreeLateChunks) {
  obs::Registry reg;
  Arena arena(&reg, kTestRegion);
  void* keep = arena.allocate(128);
  const std::uint64_t m = arena.mark();
  (void)arena.allocate(128);
  (void)arena.allocate(2 * kTestRegion);  // oversize is covered too
  EXPECT_EQ(arena.live_chunks(), 3u);
  arena.release_after(m);
  EXPECT_EQ(arena.live_chunks(), 1u);
  arena.deallocate(keep);
  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

TEST(ArenaScope, BindsNestsAndRestores) {
  obs::Registry reg;
  Arena outer_arena(&reg, kTestRegion);
  Arena inner_arena(&reg, kTestRegion);
  ASSERT_EQ(Arena::current(), nullptr);
  {
    ArenaScope outer(&outer_arena);
    EXPECT_EQ(Arena::current(), &outer_arena);
    {
      ArenaScope inner(&inner_arena);
      EXPECT_EQ(Arena::current(), &inner_arena);
      // nullptr is a real binding: it unbinds for the scope (the
      // use_arena=false-under-a-service-worker case).
      {
        ArenaScope off(nullptr);
        EXPECT_EQ(Arena::current(), nullptr);
      }
      EXPECT_EQ(Arena::current(), &inner_arena);
    }
    EXPECT_EQ(Arena::current(), &outer_arena);
  }
  EXPECT_EQ(Arena::current(), nullptr);
}

TEST(ArenaScope, PublishesGaugesToRegistry) {
  obs::Registry reg;
  Arena arena(&reg, kTestRegion);
  {
    ArenaScope scope(&arena);
    ScratchVec v(100, 7);  // allocates from the bound arena (in-region)
    EXPECT_EQ(v.get_allocator().arena(), &arena);
    EXPECT_GT(arena.bytes_in_use(), 0u);
    EXPECT_EQ(reg.gauge("camelot_arena_region_count").value(), 1);
    EXPECT_GT(reg.gauge("camelot_arena_bytes_reserved").value(), 0);
  }
  // Scope exit published the (now zero) in-use level.
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(reg.gauge("camelot_arena_bytes_in_use").value(), 0);
}

TEST(ScratchAlloc, FallsBackToHeapWhenUnbound) {
  ASSERT_EQ(Arena::current(), nullptr);
  ScratchVec v;
  EXPECT_EQ(v.get_allocator().arena(), nullptr);
  v.assign(4096, 42);  // plain operator new underneath
  EXPECT_EQ(v[4095], 42u);
}

TEST(ScratchAlloc, VectorsCarryTheirArenaAcrossScopeExit) {
  // A vector allocated inside a scope frees into the same arena even
  // after the binding is gone — the allocator was captured at
  // construction, so nothing dangles.
  obs::Registry reg;
  Arena arena(&reg, kTestRegion);
  {
    ScratchVec v;
    {
      ArenaScope scope(&arena);
      ScratchVec bound(100, 1);
      v = std::move(bound);
    }
    EXPECT_EQ(v.get_allocator().arena(), &arena);
    EXPECT_GT(arena.live_chunks(), 0u);
  }
  EXPECT_EQ(arena.live_chunks(), 0u);
}

TEST(Arena, PerThreadProcessLocalIsolation) {
  // Two threads allocating through their process-local arenas never
  // observe each other's chunks (the single-threaded-by-design
  // contract the session node workers rely on).
  auto worker = [] {
    Arena& mine = Arena::process_local();
    ArenaScope scope(&mine);
    const std::size_t before = mine.live_chunks();
    ScratchVec v(512, 3);
    EXPECT_EQ(mine.live_chunks(), before + 1);
    for (u64 x : v) EXPECT_EQ(x, 3u);
  };
  std::thread a(worker);
  std::thread b(worker);
  a.join();
  b.join();
}

// ---- Pipeline integration ------------------------------------------------

ClusterConfig small_config() {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.redundancy = 1.5;
  return cfg;
}

void expect_reports_equal(const RunReport& a, const RunReport& b) {
  ASSERT_EQ(a.success, b.success);
  ASSERT_EQ(a.answers.size(), b.answers.size());
  for (std::size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_EQ(a.answers[i], b.answers[i]) << "answer " << i;
  }
  ASSERT_EQ(a.per_prime.size(), b.per_prime.size());
  for (std::size_t pi = 0; pi < a.per_prime.size(); ++pi) {
    EXPECT_EQ(a.per_prime[pi].prime, b.per_prime[pi].prime);
    EXPECT_EQ(a.per_prime[pi].decode_status, b.per_prime[pi].decode_status);
    EXPECT_EQ(a.per_prime[pi].verified, b.per_prime[pi].verified);
    EXPECT_EQ(a.per_prime[pi].answer_residues,
              b.per_prime[pi].answer_residues);
    EXPECT_EQ(a.per_prime[pi].corrected_symbols,
              b.per_prime[pi].corrected_symbols);
  }
}

TEST(ArenaPipeline, SessionBitIdenticalArenaOnVsOff) {
  // The A/B contract behind the CI CAMELOT_ARENA=off leg: the arena
  // moves scratch, never words. Corruption included so decode's
  // remainder sequence (the deepest scratch user) runs for real.
  BoolMatrix ma = BoolMatrix::random(8, 5, 0.35, 11);
  BoolMatrix mb = BoolMatrix::random(8, 5, 0.35, 22);
  OrthogonalVectorsProblem problem(ma, mb);
  ByzantineAdversary adversary({1}, ByzantineStrategy::kRandom, 555);
  for (FieldBackend backend :
       {FieldBackend::kPrimeDivision, FieldBackend::kMontgomery,
        FieldBackend::kMontgomeryAvx2}) {
    // Redundancy 3.0 keeps one traitor node inside the decoding
    // radius, so the corrected decode genuinely runs.
    ClusterConfig cfg;
    cfg.num_nodes = 6;
    cfg.redundancy = 3.0;
    cfg.backend = backend;
    ASSERT_TRUE(cfg.use_arena);
    RunReport with_arena = ProofSession(problem, cfg).run(&adversary);
    cfg.use_arena = false;
    RunReport heap = ProofSession(problem, cfg).run(&adversary);
    ASSERT_TRUE(with_arena.success);
    expect_reports_equal(with_arena, heap);
  }
}

TEST(ArenaPipeline, ServiceWorkersOwnIsolatedArenas) {
  ProofServiceConfig svc;
  svc.num_workers = 4;
  ProofService service(svc);

  ClusterConfig cfg = small_config();
  std::vector<std::future<RunReport>> futures;
  auto p1 = std::make_shared<OrthogonalVectorsProblem>(
      BoolMatrix::random(8, 5, 0.35, 11), BoolMatrix::random(8, 5, 0.35, 22));
  auto p2 = std::make_shared<Conv3SumProblem>(
      std::vector<u64>{3, 1, 4, 1, 5, 9, 2, 6}, 6u);
  for (int round = 0; round < 3; ++round) {
    futures.push_back(service.submit(p1, cfg));
    futures.push_back(service.submit(p2, cfg));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().success);

  if (arena_env_enabled()) {
    // The workers' arenas report into the service registry; after the
    // jobs settled no scratch is left in use, but the regions stay
    // reserved for the next job.
    EXPECT_GT(service.metrics()->gauge("camelot_arena_bytes_reserved").value(),
              0);
    EXPECT_GT(service.metrics()->gauge("camelot_arena_region_count").value(),
              0);
  }
}

TEST(ArenaPipeline, UseArenaOffUnderServiceStaysOnHeap) {
  // A use_arena=false job under an arena-owning worker must unbind for
  // its stages (and still match the arena-on answers).
  ProofServiceConfig svc;
  svc.num_workers = 2;
  ProofService service(svc);
  auto problem = std::make_shared<Conv3SumProblem>(
      std::vector<u64>{3, 1, 4, 1, 5, 9, 2, 6}, 6u);
  ClusterConfig cfg = small_config();
  RunReport on = service.submit(problem, cfg).get();
  cfg.use_arena = false;
  RunReport off = service.submit(problem, cfg).get();
  ASSERT_TRUE(on.success);
  expect_reports_equal(on, off);
}

}  // namespace
}  // namespace camelot
