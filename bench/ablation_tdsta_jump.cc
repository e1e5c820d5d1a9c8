// Ablation for Section 3: minimal deterministic TDSTAs evaluated by the
// full top-down run vs the jumping run of Algorithm B.1 (Theorem 3.1), and
// the bottom-up runs of Algorithm B.2 with and without subtree skipping.
#include <cstdio>

#include "bench_util.h"
#include "sta/bottomup.h"
#include "sta/examples.h"
#include "sta/minimize.h"
#include "sta/run.h"
#include "sta/topdown_jump.h"
#include "util/strings.h"
#include "xpath/compile_sta.h"
#include "xpath/parser.h"

namespace xpwqo {
namespace {

int Main() {
  const Engine& engine = bench::XMarkEngine();
  bench::PrintHeader(
      "Ablation: deterministic STA evaluation (Theorem 3.1 jumping; "
      "Algorithm B.2 bottom-up)",
      engine);
  const Document& doc = engine.document();
  const TreeIndex& index = engine.index();

  std::printf("-- top-down: full run vs topdown_jump --\n");
  std::printf("%-40s %10s %10s %12s %12s %10s\n", "query", "full(ms)",
              "jump(ms)", "visited", "selected", "jumps");
  const char* queries[] = {
      "/site/regions",
      "/site/regions/europe/item",
      "//listitem//keyword",
      "//parlist//keyword",
      "/site/people/person",
  };
  for (const char* q : queries) {
    auto parsed = ParseXPath(q);
    auto sta = CompileToTdsta(*parsed, doc.alphabet_ptr().get());
    if (!sta.ok()) {
      std::printf("%-40s (out of TDSTA fragment)\n", q);
      continue;
    }
    Sta minimal = MinimizeTopDown(*sta);
    StaRunResult full;
    double full_ms =
        bench::BestOfMs([&] { full = TopDownRun(minimal, doc); });
    JumpRunResult jump;
    double jump_ms =
        bench::BestOfMs([&] { jump = TopDownJumpRun(minimal, index); });
    if (jump.selected != full.selected) {
      std::printf("MISMATCH on %s\n", q);
      return 1;
    }
    std::printf("%-40s %10.3f %10.3f %12s %12s %10s\n", q, full_ms, jump_ms,
                WithCommas(static_cast<uint64_t>(jump.stats.nodes_visited))
                    .c_str(),
                WithCommas(jump.selected.size()).c_str(),
                WithCommas(static_cast<uint64_t>(jump.stats.jumps)).c_str());
  }

  std::printf("\n-- bottom-up: Algorithm B.2 vs skipping run (//a[.//b] "
              "family) --\n");
  std::printf("%-30s %10s %10s %12s\n", "automaton", "list(ms)", "skip(ms)",
              "skip-visited");
  struct BuCase {
    const char* name;
    const char* above;
    const char* below;
  };
  const BuCase cases[] = {
      {"//listitem[.//keyword]", "listitem", "keyword"},
      {"//item[.//emph]", "item", "emph"},
      {"//person[.//zipcode]", "person", "zipcode"},
  };
  for (const BuCase& c : cases) {
    LabelId above = doc.alphabet().Find(c.above);
    LabelId below = doc.alphabet().Find(c.below);
    if (above == kNoLabel || below == kNoLabel) continue;
    Sta sta = StaForAWithBDescendant(above, below);
    StaRunResult list;
    double list_ms = bench::BestOfMs([&] { list = BottomUpListRun(sta, doc); });
    JumpRunResult skip;
    double skip_ms =
        bench::BestOfMs([&] { skip = BottomUpSkipRun(sta, doc, index); });
    if (list.selected != skip.selected) {
      std::printf("MISMATCH on %s\n", c.name);
      return 1;
    }
    std::printf("%-30s %10.3f %10.3f %12s\n", c.name, list_ms, skip_ms,
                WithCommas(static_cast<uint64_t>(skip.stats.nodes_visited))
                    .c_str());
  }
  std::printf("\nshape: the jumping run visits a small fraction of the "
              "document for selective\nqueries and never loses results.\n");
  return 0;
}

}  // namespace
}  // namespace xpwqo

int main() { return xpwqo::Main(); }
