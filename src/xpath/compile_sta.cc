#include "xpath/compile_sta.h"

namespace xpwqo {

bool IsTdstaCompilable(const Path& path) {
  if (path.steps.empty() || !path.absolute) return false;
  bool saw_descendant = false;
  for (const Step& step : path.steps) {
    if (step.axis == Axis::kDescendant) {
      saw_descendant = true;
    } else if (step.axis == Axis::kChild) {
      // A child step after a descendant step needs the automaton to both
      // scan the match's children and keep hunting deeper matches of the
      // previous step — a single chain state cannot do both
      // deterministically (it needs product states). Keep the fragment to
      // child* descendant* and leave the rest to the alternating automata.
      if (saw_descendant) return false;
    } else {
      return false;
    }
    if (step.test.kind != NodeTestKind::kName) return false;
    if (!step.predicates.empty()) return false;
  }
  return true;
}

StatusOr<Sta> CompileToTdsta(const Path& path, const Alphabet* alphabet) {
  if (!IsTdstaCompilable(path)) {
    return Status::Unimplemented(
        "TDSTA compilation covers child/descendant name-test chains only");
  }
  const int k = static_cast<int>(path.steps.size());
  // States: 0..k-1 = steps, k = universal top, k+1 = sink (possibly unused).
  Sta sta(k + 2);
  const StateId q_top = k, q_sink = k + 1;
  sta.AddTop(0);
  sta.AddBottom(q_top);
  for (StateId s = 0; s < k; ++s) sta.AddBottom(s);

  std::vector<LabelSet> tests;  // one per step; ∅ for an unknown name
  for (const Step& step : path.steps) {
    const LabelId id = alphabet->Find(step.test.name);
    tests.push_back(id == kNoLabel ? LabelSet::None() : LabelSet::Of({id}));
  }

  for (int i = 0; i < k; ++i) {
    const bool is_last = i + 1 == k;
    const bool is_desc = path.steps[i].axis == Axis::kDescendant;
    const StateId self = i;
    // On a match: the first child goes to the next step's state (or to the
    // universal state after the final step); the scan continues to the
    // right, and for descendant steps also below.
    StateId on_match_left = is_last ? q_top : i + 1;
    if (is_last && is_desc) on_match_left = self;  // keep scanning below
    StateId on_match_right = self;
    if (i == 0 && !is_desc) on_match_right = q_top;  // root has no siblings
    sta.AddTransition(self, tests[i], on_match_left, on_match_right);
    // On a mismatch.
    if (i == 0 && !is_desc) {
      // Root-anchored child step: a mismatching root rejects the tree.
      sta.AddTransition(self, tests[i].Complement(), q_sink, q_sink);
    } else if (is_desc) {
      sta.AddTransition(self, tests[i].Complement(), self, self);
    } else {
      // Child scan: skip the mismatching child's subtree, continue right.
      sta.AddTransition(self, tests[i].Complement(), q_top, self);
    }
  }
  sta.AddSelecting(k - 1, tests[k - 1]);
  sta.AddTransition(q_top, LabelSet::All(), q_top, q_top);
  sta.AddTransition(q_sink, LabelSet::All(), q_sink, q_sink);
  return sta;
}

}  // namespace xpwqo
