#include "rs/code_cache.hpp"

#include <string>
#include <utility>

namespace camelot {

std::shared_ptr<const ReedSolomonCode> CodeCache::code(
    const FieldOps& ops, std::size_t degree_bound, std::size_t length) {
  std::string key = std::to_string(ops.prime().modulus()) + '/' +
                    std::to_string(degree_bound) + '/' +
                    std::to_string(length) + '/' +
                    std::to_string(static_cast<int>(ops.backend()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = codes_.find(key);
    if (it != codes_.end()) {
      ++stats_.hits;
      return it->second;
    }
  }
  // Build outside the lock: the per-code transforms are the expensive
  // part and concurrent first requests for distinct keys should not
  // serialize. A lost race on the same key keeps the first-inserted
  // instance (both are identical).
  auto built =
      std::make_shared<const ReedSolomonCode>(ops, degree_bound, length);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = codes_.emplace(std::move(key), std::move(built));
  if (!inserted) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  std::shared_ptr<const ReedSolomonCode> out = it->second;
  if (codes_.size() > max_entries_) codes_.clear();
  return out;
}

CodeCache::Stats CodeCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.resident = codes_.size();
  return out;
}

const std::shared_ptr<CodeCache>& CodeCache::global() {
  // Tighter bound than a service's private cache: each entry owns a
  // few length-n tables, and the global instance lives for the whole
  // process.
  static const std::shared_ptr<CodeCache> instance =
      std::make_shared<CodeCache>(/*max_entries=*/32);
  return instance;
}

}  // namespace camelot
