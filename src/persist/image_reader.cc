// Opens a saved index image: one mmap, the full validation ladder, then
// pointer fixup. Every check runs before the structure it guards is
// decoded, so the hot-path readers (varint cursors, rank/select kernels)
// only ever see bytes that passed both a checksum and a structural
// re-validation — a corrupt or truncated image yields a clean kCorruption
// Status naming what failed, never a crash or a silent wrong answer.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "index/bit_vector.h"
#include "index/label_index.h"
#include "index/succinct_tree.h"
#include "index/text_store.h"
#include "persist/image_format.h"
#include "persist/index_image.h"
#include "util/check.h"
#include "util/crc32c.h"
#include "util/mmap_file.h"

namespace xpwqo {
namespace {

// NodeIds are int32_t and the BP vector holds two bits per node, so the
// node count a well-formed image can carry is bounded; anything larger is
// corruption, not scale.
constexpr uint64_t kMaxImageNodes = INT32_MAX / 2;

using persist::GetU32;
using persist::GetU64;

Status Corrupt(std::string msg) { return Status::Corruption(std::move(msg)); }

Status SectionCorrupt(uint32_t id, const char* what) {
  return Corrupt(std::string("section '") + persist::SectionName(id) + "' " +
                 what);
}

/// Per-byte excess summaries for the balance check, the same byte-at-a-time
/// technique the rmM directory build uses: a byte covers 8 parenthesis
/// positions (bit 0 first, 1 = '(' = +1), and the two tables give its net
/// excess and its minimum prefix excess, so validation walks bytes instead
/// of bits — the scan is ~10x faster, which matters because it is on the
/// open path of every image.
struct BpByteTable {
  int8_t excess[256];   // net excess of the byte
  int8_t min_fwd[256];  // min cumulative excess over prefixes of length 1..8
};

constexpr BpByteTable MakeBpByteTable() {
  BpByteTable t{};
  for (int v = 0; v < 256; ++v) {
    int cur = 0, min_f = 8;
    for (int j = 0; j < 8; ++j) {
      cur += ((v >> j) & 1) ? 1 : -1;
      min_f = cur < min_f ? cur : min_f;
    }
    t.excess[v] = static_cast<int8_t>(cur);
    t.min_fwd[v] = static_cast<int8_t>(min_f);
  }
  return t;
}

constexpr BpByteTable kBpTable = MakeBpByteTable();

/// Max over the unsigned view of the label array. Kept out of line: as part
/// of the (very large) open function the compiler pins the accumulator in a
/// stack slot, which makes the scan ~10x slower; isolated, it vectorizes.
__attribute__((noinline)) uint32_t MaxLabel(const uint32_t* labels,
                                            size_t count) {
  uint32_t max_label = 0;
  for (size_t n = 0; n < count; ++n) {
    max_label = std::max(max_label, labels[n]);
  }
  return max_label;
}

/// Balanced-parentheses sanity over the mapped words: every prefix closes
/// at most as much as it opened, the whole sequence closes everything, and
/// the padding past the last bit is zero. With this plus the size checks,
/// the BP kernels' excess searches can never walk outside the mapping even
/// if the writer had a bug the checksums faithfully preserved.
Status CheckBalancedParens(const uint64_t* words, size_t size_bits) {
  int64_t excess = 0;
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(words);
  const size_t full_bytes = size_bits / 8;
  for (size_t i = 0; i < full_bytes; ++i) {
    const uint8_t v = bytes[i];
    if (excess + kBpTable.min_fwd[v] < 0) {
      return SectionCorrupt(persist::kBpBits, "is not balanced");
    }
    excess += kBpTable.excess[v];
  }
  for (size_t i = full_bytes * 8; i < size_bits; ++i) {
    excess += ((words[i >> 6] >> (i & 63)) & 1) ? 1 : -1;
    if (excess < 0) {
      return SectionCorrupt(persist::kBpBits, "is not balanced");
    }
  }
  if (excess != 0) {
    return SectionCorrupt(persist::kBpBits, "is not balanced");
  }
  if ((size_bits & 63) != 0 &&
      (words[size_bits >> 6] >> (size_bits & 63)) != 0) {
    return SectionCorrupt(persist::kBpBits, "has nonzero padding bits");
  }
  if (words[(size_bits + 63) / 64] != 0) {
    return SectionCorrupt(persist::kBpBits, "has a nonzero pad word");
  }
  return Status::OK();
}

}  // namespace

StatusOr<CheckedImage> ValidateIndexImage(const uint8_t* data, size_t size) {
  // --- header: magic, version, flags, own checksum ---
  if (size < persist::kHeaderBytes) {
    return Corrupt("image truncated: " + std::to_string(size) +
                   " bytes is smaller than the header");
  }
  if (GetU64(data) != persist::kImageMagic) {
    return Corrupt("bad image magic (not an xpwqo index image)");
  }
  const uint32_t version = GetU32(data + 8);
  if (version != persist::kImageVersion) {
    return Corrupt("unsupported image version " + std::to_string(version) +
                   " (this build reads version " +
                   std::to_string(persist::kImageVersion) +
                   "; rebuild the image from the source XML)");
  }
  if (GetU32(data + 12) != 0) {
    return Corrupt("unknown image flags");
  }
  if (GetU32(data + 16) != persist::kSectionCount) {
    return Corrupt("unexpected section count");
  }
  const uint32_t header_bytes = GetU32(data + 20);
  if (header_bytes !=
      persist::kHeaderBytes +
          persist::kSectionCount * persist::kSectionEntryBytes) {
    return Corrupt("bad header size field");
  }
  if (size < header_bytes + persist::kFooterBytes) {
    return Corrupt("image truncated inside the section table");
  }
  const uint64_t file_bytes = GetU64(data + 24);
  const uint32_t header_crc = GetU32(data + 32);
  if (GetU32(data + 36) != 0) {
    return Corrupt("nonzero reserved header field");
  }
  // The header CRC is computed with its own field (and the adjacent
  // reserved word) as zero; chain around them.
  uint32_t crc = Crc32c(data, 32);
  const uint64_t zeros = 0;
  crc = Crc32c(&zeros, sizeof(zeros), crc);
  crc = Crc32c(data + 40, header_bytes - 40, crc);
  if (crc != header_crc) {
    return Corrupt("header checksum mismatch");
  }
  // A trustworthy header makes truncation (and concatenation) explicit.
  if (file_bytes != size) {
    return Corrupt("file size mismatch: header records " +
                   std::to_string(file_bytes) + " bytes, file has " +
                   std::to_string(size));
  }

  // --- section table: fixed order, computed placement, per-section CRC ---
  CheckedImage image;
  image.data = data;
  image.version = version;
  size_t cursor = header_bytes;
  for (uint32_t i = 0; i < persist::kSectionCount; ++i) {
    const uint8_t* entry =
        data + persist::kHeaderBytes + i * persist::kSectionEntryBytes;
    const uint32_t id = GetU32(entry);
    if (id != persist::kSectionOrder[i]) {
      return Corrupt("section table out of order (entry " +
                     std::to_string(i) + " is id " + std::to_string(id) +
                     ", expected '" +
                     persist::SectionName(persist::kSectionOrder[i]) + "')");
    }
    if (GetU32(entry + 4) != 0 || GetU32(entry + 28) != 0) {
      return SectionCorrupt(id, "has nonzero reserved entry fields");
    }
    const uint64_t offset = GetU64(entry + 8);
    const uint64_t length = GetU64(entry + 16);
    // Layout is fully determined: each section starts at the aligned end
    // of the previous one. An entry pointing anywhere else (a swapped or
    // patched offset) is corruption even if it lands inside the file.
    if (offset != cursor) {
      return SectionCorrupt(id, "is misplaced in the section table");
    }
    if (length > size - persist::kFooterBytes ||
        offset > size - persist::kFooterBytes - length) {
      return SectionCorrupt(id, "overruns the file");
    }
    if (Crc32c(data + offset, length) != GetU32(entry + 24)) {
      return SectionCorrupt(id, "checksum mismatch");
    }
    image.section_offset[i] = offset;
    image.section_length[i] = length;
    cursor = persist::Align8(offset + length);
  }
  if (cursor + persist::kFooterBytes != size) {
    return Corrupt("trailing bytes after the last section");
  }

  // --- footer: whole-file CRC (covers the padding gaps the section CRCs
  // skip) and a magic echo so truncation-to-a-prefix cannot masquerade ---
  if (GetU32(data + size - 4) != persist::kFooterMagic) {
    return Corrupt("bad footer magic");
  }
  if (Crc32c(data, size - persist::kFooterBytes) != GetU32(data + size - 8)) {
    return Corrupt("whole-file checksum mismatch");
  }

  // --- size hints, then cross-check every section length against them ---
  if (image.section_length[0] != 32) {
    return SectionCorrupt(persist::kSizeHints, "has the wrong size");
  }
  const uint8_t* hints = data + image.section_offset[0];
  const uint64_t num_nodes = GetU64(hints);
  const uint64_t num_labels = GetU64(hints + 8);
  const uint64_t text_heap_bytes = GetU64(hints + 16);
  if (GetU64(hints + 24) != 0) {
    return SectionCorrupt(persist::kSizeHints, "has nonzero reserved fields");
  }
  if (num_nodes == 0 || num_nodes > kMaxImageNodes) {
    return SectionCorrupt(persist::kSizeHints, "node count is out of range");
  }
  if (num_labels > kMaxImageNodes) {
    return SectionCorrupt(persist::kSizeHints,
                          "alphabet size is out of range");
  }
  if (text_heap_bytes > size) {
    return SectionCorrupt(persist::kSizeHints,
                          "text heap is larger than the file");
  }
  image.num_nodes = static_cast<size_t>(num_nodes);
  image.num_labels = static_cast<size_t>(num_labels);
  image.text_heap_bytes = static_cast<size_t>(text_heap_bytes);
  if (image.section_length[2] !=
      BitVector::SerializedWordBytes(2 * image.num_nodes)) {
    return SectionCorrupt(persist::kBpBits,
                          "size disagrees with the node count");
  }
  if (image.section_length[3] != image.num_nodes * sizeof(LabelId)) {
    return SectionCorrupt(persist::kLabels,
                          "size disagrees with the node count");
  }
  // The text section's own header must agree with the size hints and
  // the node count before the store is decoded (the deeper offset checks —
  // monotonicity, heap span — run in TextStore::FromExternal on open).
  if (image.section_length[5] < 32) {
    return SectionCorrupt(persist::kText, "is too small for its header");
  }
  const uint8_t* text = data + image.section_offset[5];
  const uint64_t num_values = GetU64(text);
  if (num_values > num_nodes) {
    return SectionCorrupt(persist::kText, "claims more values than nodes");
  }
  if (GetU64(text + 8) != text_heap_bytes) {
    return SectionCorrupt(persist::kText,
                          "heap size disagrees with the size hints");
  }
  if (image.section_length[5] !=
      TextStore::SerializedBytes(image.num_nodes,
                                 static_cast<size_t>(num_values),
                                 image.text_heap_bytes)) {
    return SectionCorrupt(persist::kText,
                          "size disagrees with its own header");
  }
  return image;
}

StatusOr<Engine> OpenMappedIndexImage(MmapFile file,
                                      std::shared_ptr<Alphabet> alphabet) {
  XPWQO_ASSIGN_OR_RETURN(CheckedImage image,
                         ValidateIndexImage(file.data(), file.size()));
  const uint8_t* data = image.data;

  // Alphabet: structural validation, then interning. A fresh alphabet
  // re-derives the image's exact ids; a shared (collection) alphabet must
  // agree with them, which interning verifies name by name.
  const bool fresh = alphabet == nullptr;
  if (fresh) alphabet = std::make_shared<Alphabet>();
  {
    const uint8_t* a = data + image.section_offset[1];
    const size_t alen = image.section_length[1];
    if (alen < 8 || GetU32(a + 4) != 0) {
      return SectionCorrupt(persist::kAlphabet, "has a malformed header");
    }
    if (GetU32(a) != image.num_labels) {
      return SectionCorrupt(persist::kAlphabet,
                            "count disagrees with the size hints");
    }
    const size_t dir_end = 8 + (image.num_labels + 1) * sizeof(uint64_t);
    if (dir_end > alen) {
      return SectionCorrupt(persist::kAlphabet,
                            "directory overruns the section");
    }
    const uint8_t* dir = a + 8;
    if (GetU64(dir) != dir_end ||
        GetU64(dir + image.num_labels * 8) != alen) {
      return SectionCorrupt(persist::kAlphabet,
                            "directory does not span the section");
    }
    for (size_t i = 0; i < image.num_labels; ++i) {
      const uint64_t begin = GetU64(dir + i * 8);
      const uint64_t end = GetU64(dir + (i + 1) * 8);
      if (end < begin || end > alen) {
        return SectionCorrupt(persist::kAlphabet,
                              "directory is not monotone");
      }
      const std::string_view name(reinterpret_cast<const char*>(a + begin),
                                  static_cast<size_t>(end - begin));
      const LabelId id = alphabet->Intern(name);
      if (id != static_cast<LabelId>(i)) {
        if (fresh) {
          return SectionCorrupt(persist::kAlphabet, "repeats a label name");
        }
        return Status::InvalidArgument(
            "image label '" + std::string(name) +
            "' conflicts with the collection's alphabet (id " +
            std::to_string(id) + ", image has " + std::to_string(i) + ")");
      }
    }
  }

  // BP bits: balance-check the raw words, then wrap them (the rank/select
  // and rmM directories rebuild in memory — the image stores only words).
  const uint64_t* words =
      reinterpret_cast<const uint64_t*>(data + image.section_offset[2]);
  XPWQO_RETURN_IF_ERROR(CheckBalancedParens(words, 2 * image.num_nodes));
  BitVector bits = BitVector::FromExternal(words, 2 * image.num_nodes);
  XPWQO_DCHECK(bits.CountOnes() == image.num_nodes);  // balance implies it

  // Labels: every entry must name an alphabet slot (the evaluators index
  // label-set tables and the alphabet with these). A max-reduction over the
  // unsigned view catches both negatives (they wrap huge) and overruns, and
  // vectorizes where the per-entry range branch would not.
  const LabelId* labels =
      reinterpret_cast<const LabelId*>(data + image.section_offset[3]);
  static_assert(sizeof(LabelId) == sizeof(uint32_t),
                "the unsigned range scan reads LabelId as uint32_t");
  const uint32_t* unsigned_labels =
      reinterpret_cast<const uint32_t*>(data + image.section_offset[3]);
  if (MaxLabel(unsigned_labels, image.num_nodes) >= image.num_labels) {
    return SectionCorrupt(persist::kLabels,
                          "entry falls outside the alphabet");
  }

  auto tree =
      std::make_unique<SuccinctTree>(std::move(bits), labels, image.num_nodes);
  XPWQO_ASSIGN_OR_RETURN(
      LabelIndex index,
      LabelIndex::FromImage(data + image.section_offset[4],
                            image.section_length[4],
                            static_cast<NodeId>(image.num_nodes)));
  if (index.NumLists() > image.num_labels) {
    return SectionCorrupt(persist::kPostings,
                          "has more lists than the alphabet has labels");
  }
  // Every node carries exactly one label, so the postings must partition
  // the preorder ids: their counts sum to the node count.
  uint64_t total = 0;
  for (size_t l = 0; l < index.NumLists(); ++l) {
    total += static_cast<uint64_t>(index.Count(static_cast<LabelId>(l)));
  }
  if (total != image.num_nodes) {
    return SectionCorrupt(persist::kPostings,
                          "counts do not sum to the node count");
  }

  // Text section: wrap the mapped store in place. FromExternal re-validates
  // the layout — offset monotonicity, bitmap population, heap span — so
  // even a writer bug cannot hand out views past the mapping.
  StatusOr<TextStore> text = TextStore::FromExternal(
      data + image.section_offset[5], image.section_length[5],
      image.num_nodes);
  if (!text.ok()) {
    return SectionCorrupt(persist::kText, text.status().message().c_str());
  }
  auto text_store = std::make_unique<TextStore>(std::move(*text));

  auto backing = std::make_shared<MmapFile>(std::move(file));
  Engine engine =
      Engine::FromImageParts(std::move(alphabet), std::move(tree),
                             std::move(index), std::move(text_store), backing);
  // Scrub hook for Collection::VerifyAll: re-run the full structural +
  // checksum validation over the live mapping. Captures the backing by
  // value, so the bytes outlive any engine move.
  engine.set_verifier([backing]() -> Status {
    StatusOr<CheckedImage> check =
        ValidateIndexImage(backing->data(), backing->size());
    return check.status();
  });
  return engine;
}

StatusOr<Engine> OpenIndexImageFile(const std::string& path,
                                    std::shared_ptr<Alphabet> alphabet) {
  XPWQO_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  return OpenMappedIndexImage(std::move(file), std::move(alphabet));
}

StatusOr<Engine> OpenIndexImage(const std::string& dir,
                                std::shared_ptr<Alphabet> alphabet) {
  return OpenIndexImageFile(dir + "/" + persist::kIndexImageFile,
                            std::move(alphabet));
}

}  // namespace xpwqo
