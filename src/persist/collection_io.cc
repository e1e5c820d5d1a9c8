// Collection persistence: one index image per document plus a MANIFEST
// naming them. The manifest is a line-oriented text file (easy to inspect
// when a load goes wrong) with its own trailing checksum:
//
//   xpwqo-manifest v1
//   label <percent-encoded-name>
//   ...
//   doc <file> <image-crc-hex> <percent-encoded-name>
//   ...
//   crc <manifest-crc-hex>
//
// The label lines replay the shared alphabet in id order before any
// document loads, for two reasons. The shared alphabet is complete at
// open: queries compile by lookup, so a plan compiled before a document's
// first touch already resolves every name the saved images carry, and is
// not left stale (and recompiled) once that touch adds labels. And each
// image's alphabet section is checked against the ids interning gives: a
// lazily opened image whose label ids disagree with the collection's fails
// to open instead of serving under the wrong labels.
//
// Each doc line records the file's whole-image CRC (the image footer's
// value); reopening cross-checks it against the mapped file before the
// image's own validation runs, so a swapped or restored-from-backup image
// is reported as a manifest mismatch rather than silently served. The
// final line checksums the manifest bytes above it. Documents register
// lazily: OpenCollection reads only the manifest, and each image is mapped
// and validated on the first query that touches its document — a corrupt
// image fails that document's queries with kCorruption while the rest of
// the collection keeps serving.
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "persist/fs_util.h"
#include "persist/image_format.h"
#include "persist/index_image.h"
#include "util/crc32c.h"
#include "util/mmap_file.h"

namespace xpwqo {
namespace {

using persist::GetU32;

std::string CrcHex(uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

bool IsPlainNameByte(unsigned char c) {
  return std::isalnum(c) || c == '.' || c == '_' || c == '-';
}

/// Document names are arbitrary strings; the manifest is line- and
/// space-delimited, so everything outside [A-Za-z0-9._-] rides as %XX.
std::string PercentEncode(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char ch : name) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (IsPlainNameByte(c)) {
      out.push_back(ch);
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out.append(buf);
    }
  }
  return out;
}

StatusOr<std::string> PercentDecode(std::string_view encoded) {
  std::string out;
  out.reserve(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    if (encoded[i] != '%') {
      out.push_back(encoded[i]);
      continue;
    }
    if (i + 2 >= encoded.size()) {
      return Status::Corruption("manifest has a truncated %-escape");
    }
    auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      return -1;
    };
    const int hi = hex(encoded[i + 1]);
    const int lo = hex(encoded[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::Corruption("manifest has a malformed %-escape");
    }
    out.push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return out;
}

StatusOr<uint32_t> ParseCrcHex(std::string_view token) {
  if (token.size() != 8) {
    return Status::Corruption("manifest checksum field is malformed");
  }
  uint32_t value = 0;
  for (const char c : token) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<uint32_t>(c - 'a' + 10);
    } else {
      return Status::Corruption("manifest checksum field is malformed");
    }
  }
  return value;
}

/// Image file names are generated (doc00000.xpq), but a manifest is
/// attacker-corruptible input: refuse anything that could escape `dir`.
bool IsSafeFileName(std::string_view file) {
  if (file.empty() || file == "." || file == "..") return false;
  for (const char ch : file) {
    if (!IsPlainNameByte(static_cast<unsigned char>(ch))) return false;
  }
  return true;
}

std::string DocFileName(size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "doc%05zu.xpq", i);
  return buf;
}

}  // namespace

Status SaveCollection(const Collection& collection, const std::string& dir) {
  XPWQO_RETURN_IF_ERROR(persist::EnsureDir(dir));
  const std::vector<std::string>& names = collection.names();
  // Load every lazy document up front: serialization needs the built
  // indexes, and the alphabet must be final before it is recorded.
  for (const std::string& name : names) {
    XPWQO_RETURN_IF_ERROR(collection.Get(name).status());
  }
  std::string manifest(persist::kManifestHeaderLine);
  manifest.push_back('\n');
  const Alphabet& alphabet = *collection.alphabet_ptr();
  for (LabelId i = 0; i < static_cast<LabelId>(alphabet.size()); ++i) {
    manifest += "label " + PercentEncode(alphabet.Name(i)) + "\n";
  }
  for (size_t i = 0; i < names.size(); ++i) {
    XPWQO_ASSIGN_OR_RETURN(const Engine* engine, collection.Get(names[i]));
    const std::string file = DocFileName(i);
    const std::string image = SerializeIndexImage(*engine);
    XPWQO_RETURN_IF_ERROR(persist::WriteFileAtomic(dir + "/" + file, image));
    // The image's own footer CRC doubles as its manifest fingerprint.
    const uint32_t image_crc =
        GetU32(reinterpret_cast<const uint8_t*>(image.data()) + image.size() -
               persist::kFooterBytes);
    manifest += "doc " + file + " " + CrcHex(image_crc) + " " +
                PercentEncode(names[i]) + "\n";
  }
  manifest +=
      "crc " + CrcHex(Crc32c(manifest.data(), manifest.size())) + "\n";
  return persist::WriteFileAtomic(dir + "/" + persist::kManifestFile,
                                  manifest);
}

StatusOr<Collection> OpenCollection(const std::string& dir) {
  XPWQO_ASSIGN_OR_RETURN(
      std::string manifest,
      persist::ReadFileToString(dir + "/" + persist::kManifestFile));

  // Split into lines; every line (including the last) must end in '\n'.
  std::vector<std::string_view> lines;
  {
    std::string_view rest = manifest;
    while (!rest.empty()) {
      const size_t nl = rest.find('\n');
      if (nl == std::string_view::npos) {
        return Status::Corruption("manifest has an unterminated final line");
      }
      lines.push_back(rest.substr(0, nl));
      rest.remove_prefix(nl + 1);
    }
  }
  if (lines.empty() || lines.front() != persist::kManifestHeaderLine) {
    return Status::Corruption("manifest header is missing or unrecognized");
  }
  if (lines.size() < 2 || lines.back().substr(0, 4) != "crc ") {
    return Status::Corruption("manifest checksum line is missing");
  }
  XPWQO_ASSIGN_OR_RETURN(const uint32_t recorded,
                         ParseCrcHex(lines.back().substr(4)));
  const size_t covered = manifest.size() - (lines.back().size() + 1);
  if (Crc32c(manifest.data(), covered) != recorded) {
    return Status::Corruption("manifest checksum mismatch");
  }

  Collection collection;
  size_t next = 1;
  // Replay the saved alphabet before any document loads: ids are
  // positional, so every plan compiles against the complete alphabet and
  // each lazy image load checks its own ids against it.
  for (; next + 1 < lines.size() && lines[next].substr(0, 6) == "label ";
       ++next) {
    XPWQO_ASSIGN_OR_RETURN(const std::string name,
                           PercentDecode(lines[next].substr(6)));
    const LabelId id = collection.alphabet_ptr()->Intern(name);
    if (id != static_cast<LabelId>(next - 1)) {
      return Status::Corruption("manifest repeats a label name");
    }
  }
  for (size_t i = next; i + 1 < lines.size(); ++i) {
    std::string_view line = lines[i];
    if (line.substr(0, 4) != "doc ") {
      return Status::Corruption("manifest has an unrecognized line");
    }
    line.remove_prefix(4);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = sp1 == std::string_view::npos
                           ? std::string_view::npos
                           : line.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos) {
      return Status::Corruption("manifest doc line is malformed");
    }
    const std::string file(line.substr(0, sp1));
    if (!IsSafeFileName(file)) {
      return Status::Corruption("manifest names an unsafe image file");
    }
    XPWQO_ASSIGN_OR_RETURN(const uint32_t image_crc,
                           ParseCrcHex(line.substr(sp1 + 1, sp2 - sp1 - 1)));
    XPWQO_ASSIGN_OR_RETURN(std::string name,
                           PercentDecode(line.substr(sp2 + 1)));
    const std::string path = dir + "/" + file;
    XPWQO_RETURN_IF_ERROR(collection.AddLazy(
        std::move(name),
        [path, file, image_crc](std::shared_ptr<Alphabet> shared)
            -> StatusOr<Engine> {
          XPWQO_ASSIGN_OR_RETURN(MmapFile mapped, MmapFile::Open(path));
          // Fingerprint check before the image's own validation: a
          // wrong-but-internally-valid image (restored from backup,
          // swapped with a sibling) fails here with a manifest-specific
          // message instead of silently serving stale results.
          if (mapped.size() < persist::kFooterBytes ||
              GetU32(mapped.data() + mapped.size() - persist::kFooterBytes) !=
                  image_crc) {
            return Status::Corruption("image '" + file +
                                      "' does not match the manifest");
          }
          return OpenMappedIndexImage(std::move(mapped), std::move(shared));
        }));
  }
  return collection;
}

}  // namespace xpwqo
