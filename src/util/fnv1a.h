// 64-bit FNV-1a, the one byte hash behind the journal's record checksums,
// the hash ring's shard placement, trace digests and workload digests. Each
// of those values is persisted or compared across builds, so the function
// must never change.
//
// Header-only: HashRing::ShardOf runs it on every accelerator request.
#pragma once

#include <cstdint>
#include <string_view>

namespace webcc::util {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 14695981039346656037ULL;

// Folds `bytes` into `hash`; start from kFnv1aOffsetBasis. Hashing a text
// in pieces gives the same result as hashing it whole.
inline std::uint64_t Fnv1a(std::string_view bytes,
                           std::uint64_t hash = kFnv1aOffsetBasis) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;  // FNV prime
  }
  return hash;
}

}  // namespace webcc::util
