/**
 * @file
 * FNV-1a 64-bit, the one content hash: it names the JIT's cached
 * kernels and checksums the disk tier's records. Both are persisted,
 * so the function must never change.
 */

#ifndef AMOS_SUPPORT_HASH_HH
#define AMOS_SUPPORT_HASH_HH

#include <cstdint>
#include <string_view>

namespace amos {

/// FNV-1a 64-bit offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ULL;

/**
 * FNV-1a 64-bit of `data`, continued from `hash`, so
 * fnv1a(b, fnv1a(a)) == fnv1a(a + b).
 */
inline std::uint64_t
fnv1a(std::string_view data, std::uint64_t hash = kFnv1aBasis)
{
    for (unsigned char c : data) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

} // namespace amos

#endif // AMOS_SUPPORT_HASH_HH
