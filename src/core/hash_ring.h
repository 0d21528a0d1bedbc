// Consistent-hash ring mapping URLs onto accelerator shards.
//
// Each shard contributes a fixed number of virtual points (FNV-1a of
// "shard-<index>#<replica>") to a 64-bit ring; a URL lands on the first
// point at or after its own hash. Properties the sharded accelerator
// relies on:
//
//  * deterministic — the mapping is a pure function of (num_shards, url),
//    identical across runs, platforms and processes, so replay digests stay
//    reproducible;
//  * stable — growing from N to N+1 shards moves only the URLs whose ring
//    arc the new shard's points capture (~1/(N+1) of keys), the classic
//    consistent-hashing bound;
//  * balanced — 64 virtual points per shard keep the per-shard key share
//    within a few percent of uniform for realistic URL populations.
//
// Header-only: the ring sits on the accelerator's per-request hot path and
// ShardOf must inline to a hash plus one binary search.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"
#include "util/fnv1a.h"

namespace webcc::core {

class HashRing {
 public:
  static constexpr std::uint32_t kReplicas = 64;  // virtual points per shard

  explicit HashRing(std::uint32_t num_shards) : num_shards_(num_shards) {
    WEBCC_CHECK_MSG(num_shards > 0, "hash ring needs at least one shard");
    points_.reserve(static_cast<std::size_t>(num_shards) * kReplicas);
    for (std::uint32_t shard = 0; shard < num_shards; ++shard) {
      for (std::uint32_t replica = 0; replica < kReplicas; ++replica) {
        std::string label = "shard-";
        label += std::to_string(shard);
        label += '#';
        label += std::to_string(replica);
        points_.push_back({util::Fnv1a(label), shard});
      }
    }
    // Sort by (hash, shard) so a hash collision between two shards' points
    // still resolves identically everywhere.
    std::sort(points_.begin(), points_.end());
  }

  std::uint32_t num_shards() const { return num_shards_; }

  std::uint32_t ShardOf(std::string_view url) const {
    if (num_shards_ == 1) return 0;
    const std::uint64_t hash = util::Fnv1a(url);
    const auto it = std::lower_bound(
        points_.begin(), points_.end(), Point{hash, 0});
    return it == points_.end() ? points_.front().shard : it->shard;
  }

 private:
  struct Point {
    std::uint64_t hash = 0;
    std::uint32_t shard = 0;
    bool operator<(const Point& other) const {
      return hash != other.hash ? hash < other.hash : shard < other.shard;
    }
  };

  std::uint32_t num_shards_;
  std::vector<Point> points_;
};

}  // namespace webcc::core
