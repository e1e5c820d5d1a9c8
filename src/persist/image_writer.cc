// Serializes an Engine's index into the image layout documented in
// image_format.h. The writer is deliberately deterministic — fixed section
// order, computed (never discovered) offsets, zero-filled padding — so
// saving the same engine twice produces identical bytes and an image-opened
// engine re-serializes to exactly the bytes it was opened from (the
// round-trip tests assert both).
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "index/succinct_tree.h"
#include "index/text_store.h"
#include "persist/fs_util.h"
#include "persist/image_format.h"
#include "persist/index_image.h"
#include "util/crc32c.h"

namespace xpwqo {

using persist::Align8;
using persist::PutU32;
using persist::PutU64;

std::string SerializeIndexImage(const Engine& engine) {
  // The image always stores the succinct view; a pointer-backend engine
  // encodes its topology through a temporary conversion (same preorder
  // NodeIds, so the postings and every query answer carry over).
  const SuccinctTree* tree = engine.succinct_tree();
  std::unique_ptr<SuccinctTree> converted;
  if (tree == nullptr) {
    converted = std::make_unique<SuccinctTree>(engine.document());
    tree = converted.get();
  }
  const Alphabet& alphabet = engine.alphabet();
  const size_t num_nodes = static_cast<size_t>(tree->num_nodes());

  // The content layer: streamed succinct loads and image-opened engines
  // carry a TextStore; engines holding a Document build one from it here.
  const TextStore* text = engine.text_store();
  std::unique_ptr<TextStore> built_text;
  if (text == nullptr) {
    built_text =
        std::make_unique<TextStore>(TextStore::FromDocument(engine.document()));
    text = built_text.get();
  }

  std::string sections[persist::kSectionCount];
  {  // size_hints
    std::string* s = &sections[0];
    PutU64(s, num_nodes);
    PutU64(s, static_cast<uint64_t>(alphabet.size()));
    PutU64(s, text->heap_bytes());
    PutU64(s, 0);  // reserved
  }
  {  // alphabet: count, offset directory, concatenated name bytes
    std::string* s = &sections[1];
    const uint32_t count = static_cast<uint32_t>(alphabet.size());
    PutU32(s, count);
    PutU32(s, 0);
    const size_t dir_pos = s->size();
    s->append((static_cast<size_t>(count) + 1) * sizeof(uint64_t), '\0');
    std::vector<uint64_t> offsets;
    offsets.reserve(static_cast<size_t>(count) + 1);
    for (uint32_t i = 0; i < count; ++i) {
      offsets.push_back(s->size());
      s->append(alphabet.Name(static_cast<LabelId>(i)));
    }
    offsets.push_back(s->size());
    std::memcpy(s->data() + dir_pos, offsets.data(),
                offsets.size() * sizeof(uint64_t));
  }
  tree->bp_bits().SerializeWordsTo(&sections[2]);  // bp_bits
  {                                                // labels
    const std::span<const LabelId> labels = tree->label_array();
    sections[3].append(reinterpret_cast<const char*>(labels.data()),
                       labels.size() * sizeof(LabelId));
  }
  engine.index().labels().SerializeTo(&sections[4]);  // postings
  text->SerializeTo(&sections[5]);  // text

  const size_t header_bytes =
      persist::kHeaderBytes +
      persist::kSectionCount * persist::kSectionEntryBytes;
  uint64_t offsets[persist::kSectionCount];
  uint32_t crcs[persist::kSectionCount];
  size_t cursor = header_bytes;
  for (uint32_t i = 0; i < persist::kSectionCount; ++i) {
    offsets[i] = cursor;
    crcs[i] = Crc32c(sections[i].data(), sections[i].size());
    cursor = Align8(cursor + sections[i].size());
  }
  const uint64_t file_bytes = cursor + persist::kFooterBytes;

  std::string out;
  out.reserve(file_bytes);
  PutU64(&out, persist::kImageMagic);
  PutU32(&out, persist::kImageVersion);
  PutU32(&out, 0);  // flags
  PutU32(&out, persist::kSectionCount);
  PutU32(&out, static_cast<uint32_t>(header_bytes));
  PutU64(&out, file_bytes);
  PutU32(&out, 0);  // header_crc, patched below once the table is written
  PutU32(&out, 0);  // reserved
  for (uint32_t i = 0; i < persist::kSectionCount; ++i) {
    PutU32(&out, persist::kSectionOrder[i]);
    PutU32(&out, 0);
    PutU64(&out, offsets[i]);
    PutU64(&out, sections[i].size());
    PutU32(&out, crcs[i]);
    PutU32(&out, 0);
  }
  // The header CRC covers header + section table with its own field as
  // zero — which it still is here.
  const uint32_t header_crc = Crc32c(out.data(), header_bytes);
  std::memcpy(out.data() + 32, &header_crc, sizeof(header_crc));
  for (uint32_t i = 0; i < persist::kSectionCount; ++i) {
    out.resize(offsets[i]);  // zero-fill the alignment gap
    out += sections[i];
  }
  out.resize(cursor);
  const uint32_t file_crc = Crc32c(out.data(), out.size());
  PutU32(&out, file_crc);
  PutU32(&out, persist::kFooterMagic);
  return out;
}

Status SaveIndexImage(const Engine& engine, const std::string& dir) {
  XPWQO_RETURN_IF_ERROR(persist::EnsureDir(dir));
  return persist::WriteFileAtomic(dir + "/" + persist::kIndexImageFile,
                                  SerializeIndexImage(engine));
}

}  // namespace xpwqo
