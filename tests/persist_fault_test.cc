// Fault injection over the persistent index format: every corruption —
// single-byte flips anywhere in the image, truncation at every section
// boundary, zeroed headers, swapped section offsets, structurally
// inconsistent payloads behind valid checksums, damaged manifests — must
// surface as a clean non-OK Status with the right code (kCorruption for
// bad bytes, kIoError for missing files) and a message naming what broke.
// Never a crash: scripts/check.sh runs this suite under ASan/UBSan as the
// corruption sweep.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/collection.h"
#include "core/engine.h"
#include "index/bit_vector.h"
#include "persist/corruptor.h"
#include "persist/fs_util.h"
#include "persist/image_format.h"
#include "persist/index_image.h"
#include "serve/serving_runtime.h"
#include "util/crc32c.h"
#include "xml/serializer.h"
#include "test_util.h"

namespace xpwqo {
namespace {

using persist::Corruptor;

std::string FreshDir(const char* tag) {
  // ctest runs each test as its own process, so the name needs the pid —
  // a process-local counter alone would collide across parallel tests.
  static int counter = 0;
  return ::testing::TempDir() + "xpwqo_fault_" + tag + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(counter++);
}

/// One saved image the faults are injected into, plus its checked layout.
class PersistFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A text-bearing corpus, so the byte-flip and truncation sweeps run
    // over a populated v2 text section (has-bitmap, offsets, value heap),
    // not just the structural sections.
    std::string xml = "<root>";
    for (int i = 0; i < 60; ++i) {
      xml += "<item id='k" + std::to_string(i) + "'><name>value " +
             std::to_string(i % 7) + "</name></item>";
    }
    xml += "</root>";
    auto engine = Engine::FromXmlString(xml, TreeBackend::kSuccinct);
    ASSERT_TRUE(engine.ok()) << engine.status();
    image_ = SerializeIndexImage(*engine);
    auto checked = ValidateIndexImage(
        reinterpret_cast<const uint8_t*>(image_.data()), image_.size());
    ASSERT_TRUE(checked.ok()) << checked.status();
    layout_ = *checked;
    dir_ = FreshDir("image");
    ASSERT_TRUE(persist::EnsureDir(dir_).ok());
    path_ = dir_ + "/" + persist::kIndexImageFile;
  }

  /// Writes `bytes` as the image file and opens it.
  StatusOr<Engine> OpenBytes(const std::string& bytes) {
    const Status written = persist::WriteFileAtomic(path_, bytes);
    if (!written.ok()) return written;
    return OpenIndexImageFile(path_);
  }

  /// Recomputes every checksum of a structurally-edited image so a fault
  /// reaches the validation layer under test instead of stopping at the
  /// CRC that guards it.
  static void FixChecksums(std::string* image) {
    uint8_t* data = reinterpret_cast<uint8_t*>(image->data());
    const uint32_t header_bytes = persist::GetU32(data + 20);
    for (uint32_t i = 0; i < persist::kSectionCount; ++i) {
      uint8_t* entry =
          data + persist::kHeaderBytes + i * persist::kSectionEntryBytes;
      const uint64_t offset = persist::GetU64(entry + 8);
      const uint64_t length = persist::GetU64(entry + 16);
      if (offset + length <= image->size()) {
        const uint32_t crc = Crc32c(data + offset, length);
        std::memcpy(entry + 24, &crc, sizeof(crc));
      }
    }
    std::memset(data + 32, 0, 8);  // header_crc + reserved
    const uint32_t header_crc = Crc32c(data, header_bytes);
    std::memcpy(data + 32, &header_crc, sizeof(header_crc));
    const uint32_t file_crc =
        Crc32c(data, image->size() - persist::kFooterBytes);
    std::memcpy(data + image->size() - 8, &file_crc, sizeof(file_crc));
  }

  std::string image_;
  CheckedImage layout_;
  std::string dir_;
  std::string path_;
};

TEST_F(PersistFaultTest, EveryByteFlipFailsWithCorruption) {
  // The whole-file sweep: no byte of the image may flip without Open
  // reporting kCorruption (and without crashing — ASan is watching).
  for (size_t offset = 0; offset < image_.size(); ++offset) {
    auto opened = OpenBytes(Corruptor(image_).FlipByte(offset).bytes());
    ASSERT_FALSE(opened.ok()) << "byte " << offset << " flipped unnoticed";
    ASSERT_EQ(opened.status().code(), StatusCode::kCorruption)
        << "byte " << offset << ": " << opened.status();
  }
}

TEST_F(PersistFaultTest, SectionFaultNamesTheSection) {
  for (uint32_t i = 0; i < persist::kSectionCount; ++i) {
    if (layout_.section_length[i] == 0) continue;
    const size_t offset =
        layout_.section_offset[i] + layout_.section_length[i] / 2;
    auto opened = OpenBytes(Corruptor(image_).FlipByte(offset).bytes());
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
    EXPECT_NE(opened.status().message().find(
                  persist::SectionName(persist::kSectionOrder[i])),
              std::string::npos)
        << opened.status();
  }
}

TEST_F(PersistFaultTest, TruncationAtEveryBoundaryFailsCleanly) {
  std::set<size_t> cuts = {0, 1, 8, persist::kHeaderBytes - 1,
                           persist::kHeaderBytes};
  for (uint32_t i = 0; i < persist::kSectionCount; ++i) {
    const size_t begin = layout_.section_offset[i];
    const size_t end = begin + layout_.section_length[i];
    for (const size_t cut : {begin - 1, begin, begin + 1, (begin + end) / 2,
                             end - 1, end, end + 1}) {
      if (cut <= image_.size()) cuts.insert(cut);
    }
  }
  cuts.insert(image_.size() - persist::kFooterBytes);
  cuts.insert(image_.size() - 1);
  for (const size_t cut : cuts) {
    if (cut >= image_.size()) continue;
    auto opened = OpenBytes(Corruptor(image_).Truncate(cut).bytes());
    ASSERT_FALSE(opened.ok()) << "truncated to " << cut;
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
        << "truncated to " << cut << ": " << opened.status();
  }
}

TEST_F(PersistFaultTest, AppendedBytesAreRejected) {
  auto opened = OpenBytes(Corruptor(image_).Extend(8).bytes());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().message().find("size mismatch"),
            std::string::npos)
      << opened.status();
}

TEST_F(PersistFaultTest, ZeroedHeaderIsRejected) {
  auto opened =
      OpenBytes(Corruptor(image_).ZeroRange(0, persist::kHeaderBytes).bytes());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().message().find("magic"), std::string::npos);
}

TEST_F(PersistFaultTest, SwappedSectionOffsetsAreRejected) {
  // Swap the bp_bits and labels offsets in the section table and repair
  // every checksum: the deterministic-placement check still refuses.
  std::string bytes = image_;
  const size_t entry2 = persist::kHeaderBytes + 2 * persist::kSectionEntryBytes;
  const size_t entry3 = persist::kHeaderBytes + 3 * persist::kSectionEntryBytes;
  Corruptor corruptor(std::move(bytes));
  corruptor.SwapRanges(entry2 + 8, entry3 + 8, 8);
  std::string swapped = corruptor.bytes();
  FixChecksums(&swapped);
  auto opened = OpenBytes(swapped);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().message().find("misplaced"), std::string::npos)
      << opened.status();
}

TEST_F(PersistFaultTest, UnknownVersionIsRejected) {
  // The reader opens exactly the version it writes: an older image (1, the
  // structural-only format) fails like a newer one (3), and the message
  // says how to recover.
  for (const uint32_t version : {1u, 3u}) {
    std::string bytes = image_;
    std::memcpy(bytes.data() + 8, &version, sizeof(version));
    FixChecksums(&bytes);
    auto opened = OpenBytes(bytes);
    ASSERT_FALSE(opened.ok()) << "version " << version;
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
    EXPECT_NE(opened.status().message().find("unsupported image version " +
                                             std::to_string(version)),
              std::string::npos)
        << opened.status();
    EXPECT_NE(opened.status().message().find(
                  "rebuild the image from the source XML"),
              std::string::npos)
        << opened.status();
  }
}

TEST_F(PersistFaultTest, UnknownFlagsAreRejected) {
  std::string bytes = image_;
  const uint32_t flags = 1;
  std::memcpy(bytes.data() + 12, &flags, sizeof(flags));
  FixChecksums(&bytes);
  auto opened = OpenBytes(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("flags"), std::string::npos);
}

TEST_F(PersistFaultTest, OutOfAlphabetLabelBehindValidChecksumsIsRejected) {
  // A consistent checksum over inconsistent content: the structural
  // re-validation still refuses to build.
  std::string bytes = image_;
  const uint32_t bogus = 0x7FFFFFFF;
  std::memcpy(bytes.data() + layout_.section_offset[3], &bogus,
              sizeof(bogus));
  FixChecksums(&bytes);
  auto opened = OpenBytes(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().message().find("labels"), std::string::npos)
      << opened.status();
}

TEST_F(PersistFaultTest, UnbalancedParenthesesBehindValidChecksumsAreRejected) {
  std::string bytes = image_;
  // Closing the root immediately drives the excess negative at bit 1.
  bytes[layout_.section_offset[2]] =
      static_cast<char>(bytes[layout_.section_offset[2]] & ~0x02);
  FixChecksums(&bytes);
  auto opened = OpenBytes(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().message().find("balanced"), std::string::npos)
      << opened.status();
}

TEST_F(PersistFaultTest, ZeroedPostingsBehindValidChecksumsAreRejected) {
  std::string bytes = image_;
  Corruptor corruptor(std::move(bytes));
  corruptor.ZeroRange(layout_.section_offset[4], layout_.section_length[4]);
  std::string zeroed = corruptor.bytes();
  FixChecksums(&zeroed);
  auto opened = OpenBytes(zeroed);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
}

TEST_F(PersistFaultTest, NonMonotoneTextOffsetsBehindValidChecksumsAreRejected) {
  // The text section is header (32) + has-bitmap words + offset directory +
  // heap. Bump offsets[1] past offsets[2] and repair every checksum: the
  // store's structural validation still refuses.
  std::string bytes = image_;
  const size_t dir_pos = layout_.section_offset[5] + 32 +
                         BitVector::SerializedWordBytes(layout_.num_nodes);
  const uint64_t huge = ~uint64_t{0} >> 1;
  std::memcpy(bytes.data() + dir_pos + 8, &huge, sizeof(huge));
  FixChecksums(&bytes);
  auto opened = OpenBytes(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().message().find("monotone"), std::string::npos)
      << opened.status();
}

TEST_F(PersistFaultTest, TextBitmapPopulationMismatchIsRejected) {
  // Mark the root (an element) as value-bearing: the bitmap population no
  // longer equals the header's value count.
  std::string bytes = image_;
  bytes[layout_.section_offset[5] + 32] |= 0x01;
  FixChecksums(&bytes);
  auto opened = OpenBytes(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().message().find("bitmap"), std::string::npos)
      << opened.status();
}

TEST_F(PersistFaultTest, MissingFilesAreIoErrorsNotCorruption) {
  auto no_dir = OpenIndexImage(FreshDir("never_created"));
  ASSERT_FALSE(no_dir.ok());
  EXPECT_EQ(no_dir.status().code(), StatusCode::kIoError);
  auto no_manifest = OpenCollection(FreshDir("never_created_either"));
  ASSERT_FALSE(no_manifest.ok());
  EXPECT_EQ(no_manifest.status().code(), StatusCode::kIoError);
}

TEST_F(PersistFaultTest, EmptyImageFileIsCorruption) {
  auto opened = OpenBytes(std::string());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
}

/// Collection-level faults: damaged manifests and image/manifest skew.
class CollectionFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Collection library;
    ASSERT_TRUE(library.AddXmlString("a", "<x><y/></x>").ok());
    ASSERT_TRUE(library.AddXmlString("b", "<x><y/><y/></x>").ok());
    dir_ = FreshDir("collection");
    ASSERT_TRUE(SaveCollection(library, dir_).ok());
    manifest_path_ = dir_ + "/" + persist::kManifestFile;
    auto manifest = persist::ReadFileToString(manifest_path_);
    ASSERT_TRUE(manifest.ok());
    manifest_ = *manifest;
  }

  /// Replaces the manifest's trailing checksum line so edited doc lines
  /// reach the line parser instead of the checksum gate.
  static std::string WithFreshCrc(std::string body) {
    const size_t crc_line = body.rfind("crc ");
    body.resize(crc_line);
    char hex[16];
    std::snprintf(hex, sizeof(hex), "crc %08x\n",
                  Crc32c(body.data(), body.size()));
    return body + hex;
  }

  std::string dir_;
  std::string manifest_path_;
  std::string manifest_;
};

TEST_F(CollectionFaultTest, ManifestByteFlipIsCorruption) {
  std::string damaged = manifest_;
  damaged[damaged.size() / 2] ^= 0x20;
  ASSERT_TRUE(persist::WriteFileAtomic(manifest_path_, damaged).ok());
  auto opened = OpenCollection(dir_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().message().find("manifest"), std::string::npos);
}

TEST_F(CollectionFaultTest, UnterminatedManifestIsCorruption) {
  ASSERT_TRUE(persist::WriteFileAtomic(
                  manifest_path_,
                  manifest_.substr(0, manifest_.size() - 1))
                  .ok());
  auto opened = OpenCollection(dir_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
}

TEST_F(CollectionFaultTest, UnsafeImagePathIsRejected) {
  // A manifest naming "../evil" must not be followed out of the directory,
  // even with a valid manifest checksum.
  std::string body = manifest_;
  const size_t pos = body.find("doc00000.xpq");
  ASSERT_NE(pos, std::string::npos);
  body.replace(pos, strlen("doc00000.xpq"), "%2E%2E%2Fevil");
  ASSERT_TRUE(
      persist::WriteFileAtomic(manifest_path_, WithFreshCrc(body)).ok());
  auto opened = OpenCollection(dir_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().message().find("unsafe"), std::string::npos)
      << opened.status();
}

TEST_F(CollectionFaultTest, SwappedImageFailsTheManifestFingerprint) {
  // Replace document a's image with document b's — internally valid, but
  // not the bytes the manifest recorded.
  auto other = persist::ReadFileToString(dir_ + "/doc00001.xpq");
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(
      persist::WriteFileAtomic(dir_ + "/doc00000.xpq", *other).ok());
  auto opened = OpenCollection(dir_);
  ASSERT_TRUE(opened.ok()) << opened.status();  // manifest itself is fine
  auto bad = opened->Get("a");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  EXPECT_NE(bad.status().message().find("does not match the manifest"),
            std::string::npos)
      << bad.status();
}

TEST_F(CollectionFaultTest, CorruptDocumentDegradesOnlyItself) {
  const std::string image_path = dir_ + "/doc00000.xpq";
  auto pristine = persist::ReadFileToString(image_path);
  ASSERT_TRUE(pristine.ok());
  auto corruptor = Corruptor::Load(image_path);
  ASSERT_TRUE(corruptor.ok());
  ASSERT_TRUE(
      corruptor->FlipByte(pristine->size() / 2).WriteTo(image_path).ok());

  auto opened = OpenCollection(dir_);
  ASSERT_TRUE(opened.ok()) << opened.status();
  // The healthy document serves.
  auto good = opened->Get("b");
  ASSERT_TRUE(good.ok()) << good.status();
  auto result = (*good)->Run("//y");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nodes.size(), 2u);
  // The damaged one fails cleanly...
  auto bad = opened->Get("a");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  // ...and recovers once the image is restored: failed loads keep the
  // loader, so the next touch retries.
  ASSERT_TRUE(persist::WriteFileAtomic(image_path, *pristine).ok());
  auto recovered = opened->Get("a");
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  auto rerun = (*recovered)->Run("//y");
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun->nodes.size(), 1u);
}

TEST_F(CollectionFaultTest, VerifyAllQuarantinesInPlaceCorruption) {
  auto opened = OpenCollection(dir_);
  ASSERT_TRUE(opened.ok()) << opened.status();
  // Touch both documents so both images are live mappings.
  ASSERT_TRUE(opened->Get("a").ok());
  ASSERT_TRUE(opened->Get("b").ok());
  const VerifyReport clean = opened->VerifyAll();
  EXPECT_EQ(clean.checked, 2u);
  EXPECT_EQ(clean.quarantined, 0u);

  // Damage document a's image *in place* — same inode, so the bytes under
  // the live mapping change (WriteTo's atomic rename would create a new
  // inode, leave the old one mapped, and the scrub would see nothing).
  const std::string image_path = dir_ + "/doc00000.xpq";
  auto pristine = persist::ReadFileToString(image_path);
  ASSERT_TRUE(pristine.ok());
  auto corruptor = Corruptor::Load(image_path);
  ASSERT_TRUE(corruptor.ok());
  ASSERT_TRUE(corruptor->FlipByte(pristine->size() / 2)
                  .WriteInPlace(image_path)
                  .ok());

  const VerifyReport report = opened->VerifyAll();
  EXPECT_EQ(report.checked, 2u);
  ASSERT_EQ(report.quarantined, 1u);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.rows[0].name, "a");
  EXPECT_EQ(report.rows[0].status.code(), StatusCode::kCorruption);
  EXPECT_TRUE(report.rows[1].status.ok());

  // The quarantined document refuses to serve; the healthy one keeps going.
  EXPECT_EQ(opened->Find("a"), nullptr);
  EXPECT_EQ(opened->Get("a").status().code(), StatusCode::kCorruption);
  EXPECT_EQ(opened->Health("a").code(), StatusCode::kCorruption);
  EXPECT_TRUE(opened->Health("b").ok());
  auto good = opened->Get("b");
  ASSERT_TRUE(good.ok()) << good.status();
  auto result = (*good)->Run("//y");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nodes.size(), 2u);

  // Quarantine is sticky: the next sweep reports the slot without
  // re-scrubbing it — a corrupted live mapping is not recoverable in
  // place, even after the file on disk is restored.
  ASSERT_TRUE(persist::WriteFileAtomic(image_path, *pristine).ok());
  const VerifyReport again = opened->VerifyAll();
  EXPECT_EQ(again.checked, 1u);
  EXPECT_EQ(again.quarantined, 0u);
  ASSERT_EQ(again.rows.size(), 2u);
  EXPECT_EQ(again.rows[0].name, "a");
  EXPECT_EQ(again.rows[0].status.code(), StatusCode::kCorruption);
  EXPECT_EQ(opened->Get("a").status().code(), StatusCode::kCorruption);

  // End to end through the serving runtime: the quarantined shard fails
  // its row with kCorruption while the healthy one serves the job.
  ServingRuntime runtime(&*opened);
  auto served = runtime.Execute("//y");
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(served->status.ok()) << served->status;
  ASSERT_EQ(served->documents.size(), 2u);
  EXPECT_EQ(served->documents[0].status.code(), StatusCode::kCorruption);
  EXPECT_TRUE(served->documents[1].status.ok());
  EXPECT_EQ(served->documents[1].nodes.size(), 2u);
  EXPECT_EQ(runtime.Stats().docs_failed, 1);
}

}  // namespace
}  // namespace xpwqo
