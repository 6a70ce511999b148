// Canonical form + stable digest for instance/request text, the key of the
// sapd solve cache (src/service/solve_cache.hpp).
//
// Two requests that differ only in formatting — comments, indentation,
// trailing blanks, CRLF — describe the same instance, so the cache keys on a
// *canonical* rendering of the text rather than the raw bytes: '#' comments
// are stripped, every maximal run of blanks/tabs collapses to one space, and
// blank lines disappear. Canonicalization never merges distinct token
// streams (a separator survives wherever one existed), so a canonical-text
// collision implies token-level equality; the converse misses (same
// instance, different token spelling like "07" vs "7") only cost a cache
// miss, never a wrong hit.
//
// The digest is a splitmix64-style two-lane 128-bit mix: fast, seedless and
// stable across platforms/runs (unlike std::hash), which the cache journal
// relies on: a recovered record keeps the key it was written with. It is not
// cryptographic; sapd trusts its cache only as far as it trusts its peers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sap {

/// A 128-bit content digest; value type, usable as a hash-map key.
struct InstanceDigest {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const InstanceDigest&,
                         const InstanceDigest&) = default;
};

/// Canonical rendering of line-oriented instance/request text: comments and
/// blank lines dropped, runs of spaces/tabs/CR collapsed, every surviving
/// line '\n'-terminated.
[[nodiscard]] std::string canonical_instance_text(std::string_view text);

/// Splitmix64 two-lane digest over a sequence of framed fields (no
/// canonicalization). Each update() call is one field: chunk boundaries are
/// part of the hashed stream, so update("ful") + update("lx") never
/// collides with update("full") + update("x") — feed one logical value per
/// call rather than streaming a value in pieces.
class InstanceHasher {
 public:
  void update(std::string_view bytes) noexcept;
  /// Mixes a 64-bit value (e.g. a seed or flag word) into the stream.
  void update_u64(std::uint64_t value) noexcept;
  /// Finalizes over everything fed so far; the hasher may keep being fed
  /// afterwards (digest() is a pure function of the state).
  [[nodiscard]] InstanceDigest digest() const noexcept;

 private:
  std::uint64_t lane0_ = 0x9e3779b97f4a7c15ull;
  std::uint64_t lane1_ = 0xbf58476d1ce4e5b9ull;
  std::uint64_t length_ = 0;
};

/// Convenience: digest of the canonical form of `text`.
[[nodiscard]] InstanceDigest canonical_digest(std::string_view text);

}  // namespace sap
