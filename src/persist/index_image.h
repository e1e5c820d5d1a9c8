// Crash-proof persistent index images: save a loaded Engine (or a whole
// Collection) to a directory, reopen it later with one mmap instead of a
// full XML re-parse and index rebuild.
//
//   XPWQO_ASSIGN_OR_RETURN(Engine built, Engine::FromXmlFile("doc.xml"));
//   XPWQO_RETURN_IF_ERROR(SaveIndexImage(built, "doc.idx"));
//   ...
//   XPWQO_ASSIGN_OR_RETURN(Engine served, OpenIndexImage("doc.idx"));
//   // served answers every query the built succinct engine answers;
//   // opening cost one mmap + in-memory directory rebuilds.
//
// The image always stores the succinct view (BP bits + label array +
// compressed postings + alphabet): saving a pointer-backend engine encodes
// its topology through a temporary SuccinctTree, and Open always returns a
// succinct-backend engine. Node ids are preorder ranks on both backends,
// so query results are identical. Every image also carries the content
// layer (attribute values and text content, TextStore) in its text
// section, so value predicates ([text()='v']) and XML serialization work
// on image-opened engines. An image of any other version than
// persist::kImageVersion fails to open with kCorruption ("unsupported
// image version"); images are a cache of the XML, so rebuild it.
//
// Failure taxonomy (see util/status.h): kIoError for OS-level failures
// (open/stat/mmap/write — retrying may succeed), kCorruption for bytes
// that fail validation (checksum mismatch, truncation, malformed
// structure — the image must be rebuilt from the source XML). Open never
// crashes on a corrupt image: every byte is checksummed and every
// structural invariant re-validated before any pointer fixup, under the
// layered scheme documented in image_format.h.
#ifndef XPWQO_PERSIST_INDEX_IMAGE_H_
#define XPWQO_PERSIST_INDEX_IMAGE_H_

#include <memory>
#include <string>

#include "core/collection.h"
#include "core/engine.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace xpwqo {

/// Serializes the engine's index into image bytes (the contents of an
/// index.xpq file). Deterministic: the same engine always produces the
/// same bytes, and an image-opened engine re-serializes byte-identically.
std::string SerializeIndexImage(const Engine& engine);

/// Writes the engine's index image into `dir` (created if missing) as
/// index.xpq. The write goes through a temp file + rename, so a crash
/// mid-save never leaves a half-written image under the final name.
Status SaveIndexImage(const Engine& engine, const std::string& dir);

/// Opens a saved index image: one mmap, full validation, pointer fixup.
/// `alphabet` — when given — receives the image's labels by interning
/// (the Collection path: every document of a collection shares one); the
/// image's label ids must agree with the ids interning yields, otherwise
/// the open fails. Pass nothing for a standalone engine.
StatusOr<Engine> OpenIndexImage(const std::string& dir,
                                std::shared_ptr<Alphabet> alphabet = nullptr);

/// Same, but addressing the image file itself rather than its directory.
StatusOr<Engine> OpenIndexImageFile(
    const std::string& path, std::shared_ptr<Alphabet> alphabet = nullptr);

/// The open path behind the file loaders: validates and fixes up an
/// already-mapped image, adopting the mapping into the returned engine.
/// The collection loader uses this to cross-check the manifest's recorded
/// checksum against the mapped footer before building.
StatusOr<Engine> OpenMappedIndexImage(
    MmapFile file, std::shared_ptr<Alphabet> alphabet = nullptr);

/// Validated image bytes, ready for pointer fixup: the section payloads
/// of one checked image. Produced by ValidateIndexImage; consumed by the
/// open path and by tests that want the layout without building an Engine.
struct CheckedImage {
  const uint8_t* data = nullptr;
  /// Format version of the image (always persist::kImageVersion).
  uint32_t version = 0;
  size_t num_nodes = 0;
  size_t num_labels = 0;  // alphabet entries
  /// Text heap bytes from the size hints.
  size_t text_heap_bytes = 0;
  // Section payloads (offsets into data, exact lengths).
  size_t section_offset[6] = {};
  size_t section_length[6] = {};
};

/// Runs the full validation ladder over raw image bytes — header, section
/// table, per-section CRCs, footer CRC, size-hint cross-checks — without
/// building anything. The returned offsets point into `data`.
StatusOr<CheckedImage> ValidateIndexImage(const uint8_t* data, size_t size);

/// Saves every document of the collection into `dir`: one image file per
/// document plus a MANIFEST naming them (documents load lazily on reopen).
/// Lazy documents that have not been touched yet are loaded first.
Status SaveCollection(const Collection& collection, const std::string& dir);

/// Opens a saved collection: reads and validates the MANIFEST, registers
/// every document as a lazy slot (Collection::AddLazy), and returns. No
/// image is mapped until its document is first queried; a corrupt image
/// then surfaces as kCorruption from that query, leaving the other
/// documents usable.
StatusOr<Collection> OpenCollection(const std::string& dir);

}  // namespace xpwqo

#endif  // XPWQO_PERSIST_INDEX_IMAGE_H_
