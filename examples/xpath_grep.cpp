// xpath_grep: command-line XPath search over an XML file or a saved index.
//
//   $ ./examples/xpath_grep '<query>' <file.xml> [--paths|--xml|--count]
//                            [--strategy naive|jumping|memoized|optimized|
//                                        hybrid|baseline]
//                            [--limit N] [--deadline-ms N] [--explain]
//                            [--stats] [--save-index DIR]
//   $ ./examples/xpath_grep '<query>' --index DIR [...]
//
// Prints matching nodes (as paths, serialized XML, or a count). Results
// pull through a streaming ResultCursor, so --limit N stops the evaluation
// after the N-th match instead of sweeping the document — --stats shows how
// little of the tree a limited run touched. --deadline-ms N runs the query
// under a QueryContext wall-clock deadline: the evaluation hot loops check
// it every few thousand visited nodes and a blown deadline exits with a
// "deadline exceeded" error instead of finishing the sweep. --explain dumps
// the compiled automaton and its jump classification.
//
// --save-index DIR writes the loaded document's index image into DIR;
// --index DIR (in place of the XML file) reopens it with one mmap instead
// of re-parsing the XML. Images carry the text content, so --xml and
// value-predicate queries ([text()='v'], [@attr='v'], [contains(...)])
// work on image engines too. An image written by an older build fails
// with an "unsupported image version" error: rebuild it from the XML.
//
// --exists prints "true"/"false" instead of matches: the existence check
// rides the LIMIT-1 pushdown and stops at the first (verified) match —
// compare its --stats against a --count run to see the difference.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/engine.h"
#include "core/explain.h"
#include "persist/index_image.h"
#include "serve/query_context.h"
#include "xml/serializer.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: xpath_grep '<query>' <file.xml> "
      "[--paths|--xml|--count|--exists]\n"
      "                  [--strategy "
      "naive|jumping|memoized|optimized|hybrid|baseline]\n"
      "                  [--limit N] [--deadline-ms N] [--explain]\n"
      "                  [--stats] [--save-index DIR]\n"
      "       xpath_grep '<query>' --index DIR [options as above]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string query = argv[1];
  std::string file;
  std::string index_dir;
  std::string save_dir;
  int first_option = 3;
  if (!std::strcmp(argv[2], "--index")) {
    if (argc < 4) return Usage();
    index_dir = argv[3];
    first_option = 4;
  } else {
    file = argv[2];
  }
  enum { kPaths, kXml, kCount, kExists } mode = kPaths;
  bool explain = false;
  bool stats = false;
  size_t limit = static_cast<size_t>(-1);
  long deadline_ms = -1;
  xpwqo::QueryOptions options;
  for (int i = first_option; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--paths")) {
      mode = kPaths;
    } else if (!std::strcmp(argv[i], "--xml")) {
      mode = kXml;
    } else if (!std::strcmp(argv[i], "--count")) {
      mode = kCount;
    } else if (!std::strcmp(argv[i], "--exists")) {
      mode = kExists;
      limit = 1;  // the cursor loop stops at the first verified match
    } else if (!std::strcmp(argv[i], "--explain")) {
      explain = true;
    } else if (!std::strcmp(argv[i], "--stats")) {
      stats = true;
    } else if (!std::strcmp(argv[i], "--save-index") && i + 1 < argc) {
      save_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--limit") && i + 1 < argc) {
      char* end = nullptr;
      long n = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || n < 0) return Usage();
      limit = static_cast<size_t>(n);
    } else if (!std::strcmp(argv[i], "--deadline-ms") && i + 1 < argc) {
      char* end = nullptr;
      long n = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || n <= 0) return Usage();
      deadline_ms = n;
    } else if (!std::strcmp(argv[i], "--strategy") && i + 1 < argc) {
      std::string s = argv[++i];
      if (s == "naive") {
        options.strategy = xpwqo::EvalStrategy::kNaive;
      } else if (s == "jumping") {
        options.strategy = xpwqo::EvalStrategy::kJumping;
      } else if (s == "memoized") {
        options.strategy = xpwqo::EvalStrategy::kMemoized;
      } else if (s == "optimized") {
        options.strategy = xpwqo::EvalStrategy::kOptimized;
      } else if (s == "hybrid") {
        options.strategy = xpwqo::EvalStrategy::kHybrid;
      } else if (s == "baseline") {
        options.strategy = xpwqo::EvalStrategy::kBaseline;
      } else {
        return Usage();
      }
    } else {
      return Usage();
    }
  }

  auto engine = index_dir.empty() ? xpwqo::Engine::FromXmlFile(file)
                                  : xpwqo::OpenIndexImage(index_dir);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  if (!save_dir.empty()) {
    const xpwqo::Status saved = xpwqo::SaveIndexImage(*engine, save_dir);
    if (!saved.ok()) {
      std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "saved index image to %s\n", save_dir.c_str());
  }
  auto compiled = engine->Compile(query);
  if (!compiled.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }
  if (explain) {
    std::printf("%s\n", xpwqo::ExplainQuery(*engine, *compiled).c_str());
  }
  xpwqo::QueryContext context;  // keeps the cancel flag alive for the run
  xpwqo::ExecControl control;
  if (deadline_ms > 0) {
    context = xpwqo::QueryContext::WithTimeout(
        std::chrono::milliseconds(deadline_ms));
    control = context.MakeControl();
    options.control = &control;
  }
  auto cursor = engine->OpenCursor(*compiled, options);
  if (!cursor.ok()) {
    std::fprintf(stderr, "error: %s\n", cursor.status().ToString().c_str());
    return 1;
  }
  size_t count = 0;
  while (count < limit) {
    const xpwqo::NodeId n = cursor->Next();
    if (n == xpwqo::kNullNode) break;
    ++count;
    switch (mode) {
      case kCount:
      case kExists:
        break;
      case kPaths:
        std::printf("%s\n", engine->PathTo(n).c_str());
        break;
      case kXml:
        // Serialized from the Document on the pointer backend, or from the
        // succinct tree + TextStore on image engines.
        std::printf("%s\n", engine->SerializeSubtree(n).c_str());
        break;
    }
  }
  const xpwqo::Status run_status = cursor->status();
  if (!run_status.ok()) {
    std::fprintf(stderr, "error: %s\n", run_status.ToString().c_str());
    return 1;
  }
  if (mode == kCount) std::printf("%zu\n", count);
  if (mode == kExists) std::printf("%s\n", count > 0 ? "true" : "false");
  if (stats) {
    const xpwqo::CursorStats cs = cursor->TakeStats();
    std::fprintf(stderr, "%s\n",
                 xpwqo::FormatStats(cs.eval, engine->num_nodes()).c_str());
    std::fprintf(stderr, "streaming: %s\n",
                 cursor->streaming() ? "yes" : "no");
  }
  return 0;
}
