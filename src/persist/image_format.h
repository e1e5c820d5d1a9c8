// On-disk layout of the persistent index image (version 2).
//
// One image file holds one document's succinct index — everything Open
// needs to serve queries without touching the source XML:
//
//   [ImageHeader 40B][SectionEntry x6, 32B each][sections...][footer 8B]
//
// The six sections appear in this fixed order, each 8-byte aligned with
// zero padding between (entry lengths are exact, offsets are aligned):
//
//   size_hints  node count, alphabet size, text heap bytes, reserved —
//               validated first, every other section's size is
//               cross-checked against these
//   alphabet    interned label names: {u32 count, u32 0}, count+1 u64
//               offsets (relative to the section start; entry i+1 ends
//               entry i), concatenated name bytes
//   bp_bits     the balanced-parentheses bit words exactly as
//               BitVector::SerializeWordsTo writes them (incl. pad word)
//   labels      the preorder label array, raw LabelId (u32) values
//   postings    the compressed label postings, LabelIndex::SerializeTo
//   text        the content layer, TextStore::SerializeTo — {u64
//               num_values, u64 heap_bytes, u64 0, u64 0}, the has-value
//               bitmap words over preorder NodeIds, num_values+1 monotone
//               u64 heap offsets, the concatenated UTF-8 value heap
//
// Writers always emit kImageVersion, and a save→open→save round trip is
// byte-identical. Readers open exactly kImageVersion: an image is a cache
// of its XML, so an older or newer one is rebuilt from the source, not
// migrated.
//
// Integrity is layered so no decoder ever touches unverified bytes:
// magic/version/flags, then the header CRC (covers header + section
// table), then file-size and section-bounds checks, then each section's
// CRC32C (a failure names the section), then the whole-file footer CRC.
// Only after all of that does the loader fix up pointers — and it still
// re-validates structure (monotone directories, ids inside the universe,
// balanced parentheses) so even a writer bug cannot walk a reader out of
// bounds. All multi-byte fields are little-endian; the image is mapped,
// not parsed, so it is not portable across endianness (like every other
// mmap-based index format).
//
// Version-bump policy: any layout change — new section, reordered
// sections, different per-section encoding — increments kImageVersion,
// and readers reject versions they do not know (kCorruption, "unsupported
// image version"). Additive flags are NOT used for layout changes: a
// reader rejects any nonzero flags word outright, so stale readers fail
// loudly instead of misreading.
#ifndef XPWQO_PERSIST_IMAGE_FORMAT_H_
#define XPWQO_PERSIST_IMAGE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace xpwqo {
namespace persist {

inline constexpr uint64_t kImageMagic = 0x5844494F51575058ULL;  // "XPWQOIDX"
inline constexpr uint32_t kFooterMagic = 0x444E4558;            // "XEND"
/// The one version writers emit and readers open.
inline constexpr uint32_t kImageVersion = 2;

inline constexpr size_t kHeaderBytes = 40;
inline constexpr size_t kSectionEntryBytes = 32;
inline constexpr size_t kFooterBytes = 8;

/// Section ids, in their required file order.
enum SectionId : uint32_t {
  kSizeHints = 1,
  kAlphabet = 2,
  kBpBits = 3,
  kLabels = 4,
  kPostings = 5,
  kText = 6,
};
inline constexpr uint32_t kSectionCount = 6;
inline constexpr SectionId kSectionOrder[kSectionCount] = {
    kSizeHints, kAlphabet, kBpBits, kLabels, kPostings, kText,
};

/// Human name of a section, used in corruption messages ("section
/// 'bp_bits' checksum mismatch") and by the fault-injection tests.
inline const char* SectionName(uint32_t id) {
  switch (id) {
    case kSizeHints:
      return "size_hints";
    case kAlphabet:
      return "alphabet";
    case kBpBits:
      return "bp_bits";
    case kLabels:
      return "labels";
    case kPostings:
      return "postings";
    case kText:
      return "text";
  }
  return "?";
}

/// The index image inside a saved directory.
inline constexpr const char* kIndexImageFile = "index.xpq";
/// The collection manifest inside a saved directory.
inline constexpr const char* kManifestFile = "MANIFEST";
inline constexpr const char* kManifestHeaderLine = "xpwqo-manifest v1";

inline size_t Align8(size_t n) { return (n + 7) & ~size_t{7}; }

inline void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace persist
}  // namespace xpwqo

#endif  // XPWQO_PERSIST_IMAGE_FORMAT_H_
