#include "asta/eval.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "util/check.h"

namespace xpwqo {
namespace {

using SetId = int32_t;
inline constexpr SetId kNoSet = -1;

/// One satisfied transition in a memoized formula evaluation: rebuildable
/// against any child results with the same acceptance masks.
struct MarkInstr {
  StateId state;
  bool selecting;
  std::vector<std::pair<int, StateId>> atoms;  // (child, state) mark sources
};

struct EvalEntry {
  StateMask accepted;
  std::vector<MarkInstr> instrs;
};

struct Step {
  std::vector<int32_t> transitions;
  StateMask r1;
  StateMask r2;  // without information propagation
};

/// Exact 128-bit memo key: (set, label) in `a`, (dom1, dom2) in `b`.
/// Labels are offset by 2 so kOtherLabel (= -2) packs as 0.
struct MemoKey {
  uint64_t a;
  uint64_t b;
  bool operator==(const MemoKey& o) const { return a == o.a && b == o.b; }
};
struct MemoKeyHash {
  size_t operator()(const MemoKey& k) const {
    uint64_t h = k.a * 0x9e3779b97f4a7c15ULL;
    h ^= k.b + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};
MemoKey StepKey(SetId s, LabelId label) {
  return {(static_cast<uint64_t>(static_cast<uint32_t>(s)) << 32) |
              static_cast<uint32_t>(label + 2),
          0};
}
MemoKey EvalKey(SetId s, LabelId label, SetId d1, SetId d2) {
  MemoKey k = StepKey(s, label);
  k.b = (static_cast<uint64_t>(static_cast<uint32_t>(d1)) << 32) |
        static_cast<uint32_t>(d2);
  return k;
}

template <typename TreeView>
class AstaEvaluator {
 public:
  AstaEvaluator(const Asta& asta, TreeView tree, const TreeIndex& index,
                const AstaEvalOptions& options)
      : asta_(asta),
        tree_(tree),
        index_(index),
        options_(options),
        tda_(asta),
        num_states_(asta.num_states()),
        monitor_(options.monitor != nullptr ? options.monitor
                                            : &own_monitor_) {
    XPWQO_CHECK(asta.finalized());
  }
  // monitor_ may point at own_monitor_.
  AstaEvaluator(const AstaEvaluator&) = delete;
  AstaEvaluator& operator=(const AstaEvaluator&) = delete;

  AstaEvalResult Run() { return RunAt(tree_.root()); }

  /// The automaton analysis driving this evaluator's jump decisions (the
  /// region stream consults the same instance so its top-level partition
  /// uses exactly the rule Enter applies).
  const TdaAnalysis& tda() const { return tda_; }

  /// True once the monitor stopped; every later RunAt reports no nodes.
  bool stopped() const { return monitor_->stopped(); }

  AstaEvalResult RunAt(NodeId start) {
    AstaEvalResult out;
    if (start == kNullNode) return out;
    SetId s0 = InternMask(asta_.TopMask());
    ResultSet gamma = Drive(start, s0);
    if (!monitor_->stopped()) {
      NodeList all;
      for (StateId q : asta_.tops()) {
        if (gamma.accepted.Get(q)) {
          out.accepted = true;
          all = arena_.Union(all, gamma.MarksOf(q));
        }
      }
      out.nodes = arena_.Materialize(all);
    }
    out.stats = stats_;
    out.stats.interned_sets = static_cast<int64_t>(sets_.size());
    return out;
  }

 private:
  // ------------------------------------------------------------------
  // Determinized state-set interning.
  SetId InternMask(const StateMask& mask) {
    uint64_t h = mask.Hash();
    for (SetId id : set_buckets_[h]) {
      if (sets_[id] == mask) return id;
    }
    SetId id = static_cast<SetId>(sets_.size());
    sets_.push_back(mask);
    set_buckets_[h].push_back(id);
    return id;
  }
  const StateMask& MaskOf(SetId s) const { return sets_[s]; }

  // ------------------------------------------------------------------
  // Step computation: applicable transitions and child sets (Algorithm 4.1,
  // lines 3-4).
  Step ComputeStep(SetId s, LabelId label) const {
    Step step;
    step.r1 = StateMask(num_states_);
    step.r2 = StateMask(num_states_);
    const StateMask& mask = sets_[s];
    for (StateId q = 0; q < num_states_; ++q) {
      if (!mask.Get(q)) continue;
      for (int32_t t : asta_.TransitionsOf(q)) {
        if (!asta_.transitions()[t].labels.Contains(label)) continue;
        step.transitions.push_back(t);
        for (StateId d : tda_.Down1(t)) step.r1.Set(d);
        for (StateId d : tda_.Down2(t)) step.r2.Set(d);
      }
    }
    return step;
  }

  const Step& GetStep(SetId s, LabelId label) {
    if (!options_.memoize) {
      scratch_step_ = ComputeStep(s, label);
      return scratch_step_;
    }
    MemoKey key = StepKey(s, label);
    auto it = step_memo_.find(key);
    if (it != step_memo_.end()) {
      ++stats_.memo_hits;
      return it->second;
    }
    ++stats_.memo_step_entries;
    return step_memo_.emplace(key, ComputeStep(s, label)).first->second;
  }

  // r2 with information propagation: drop ↓2 needs of transitions already
  // decided by the left child, keeping mark-carrying states (§4.4).
  StateMask ComputeR2(const Step& step, const ResultSet& g1) {
    if (!options_.info_propagation) return step.r2;
    StateMask r2(num_states_);
    auto dom1 = [&](StateId q) { return g1.accepted.Get(q); };
    for (int32_t t : step.transitions) {
      Truth3 v = asta_.formulas().EvalAfterLeft(
          asta_.transitions()[t].formula, dom1);
      if (v == Truth3::kFalse) continue;
      for (StateId d : tda_.Down2(t)) {
        if (v == Truth3::kUnknown || asta_.IsMarking(d)) r2.Set(d);
      }
    }
    return r2;
  }

  // ------------------------------------------------------------------
  // Formula evaluation with mark collection (Figure 7).
  bool EvalFormulaMarks(FormulaId f, const StateMask& d1, const StateMask& d2,
                        std::vector<std::pair<int, StateId>>* atoms) {
    const FormulaNode& n = asta_.formulas().node(f);
    switch (n.kind) {
      case FormulaKind::kTrue:
        return true;
      case FormulaKind::kFalse:
        return false;
      case FormulaKind::kAnd: {
        size_t mark = atoms->size();
        if (!EvalFormulaMarks(n.lhs, d1, d2, atoms) ||
            !EvalFormulaMarks(n.rhs, d1, d2, atoms)) {
          atoms->resize(mark);
          return false;
        }
        return true;
      }
      case FormulaKind::kOr: {
        // Both true branches contribute their marks (rule (or), case ⊤/⊤).
        size_t mark = atoms->size();
        bool a = EvalFormulaMarks(n.lhs, d1, d2, atoms);
        if (!a) atoms->resize(mark);
        size_t mid = atoms->size();
        bool b = EvalFormulaMarks(n.rhs, d1, d2, atoms);
        if (!b) atoms->resize(mid);
        return a || b;
      }
      case FormulaKind::kNot: {
        // Rule (not): the negation discards marks.
        std::vector<std::pair<int, StateId>> discard;
        return !EvalFormulaMarks(n.lhs, d1, d2, &discard);
      }
      case FormulaKind::kDown1:
        if (!d1.Get(n.state)) return false;
        atoms->emplace_back(1, n.state);
        return true;
      case FormulaKind::kDown2:
        if (!d2.Get(n.state)) return false;
        atoms->emplace_back(2, n.state);
        return true;
    }
    return false;
  }

  EvalEntry ComputeEval(const Step& step, LabelId label, const StateMask& d1,
                        const StateMask& d2) {
    (void)label;
    EvalEntry entry;
    entry.accepted = StateMask(num_states_);
    std::vector<std::pair<int, StateId>> atoms;
    for (int32_t t : step.transitions) {
      const AstaTransition& tr = asta_.transitions()[t];
      atoms.clear();
      if (!EvalFormulaMarks(tr.formula, d1, d2, &atoms)) continue;
      entry.accepted.Set(tr.from);
      if (tr.selecting || !atoms.empty()) {
        MarkInstr instr;
        instr.state = tr.from;
        instr.selecting = tr.selecting;
        instr.atoms = atoms;
        entry.instrs.push_back(std::move(instr));
      }
    }
    return entry;
  }

  /// eval_trans (Definition C.3): builds Γ for node n from the child
  /// results, via the memoized evaluation program when enabled.
  ResultSet EvalTransitions(SetId s, LabelId label, NodeId n,
                            const ResultSet& g1, const ResultSet& g2,
                            const Step& step) {
    const EvalEntry* entry;
    EvalEntry scratch;
    if (options_.memoize) {
      SetId d1 = InternMask(g1.accepted);
      SetId d2 = InternMask(g2.accepted);
      MemoKey key = EvalKey(s, label, d1, d2);
      auto it = eval_memo_.find(key);
      if (it != eval_memo_.end()) {
        ++stats_.memo_hits;
        entry = &it->second;
      } else {
        ++stats_.memo_eval_entries;
        entry = &eval_memo_
                     .emplace(key,
                              ComputeEval(step, label, g1.accepted,
                                          g2.accepted))
                     .first->second;
      }
    } else {
      scratch = ComputeEval(step, label, g1.accepted, g2.accepted);
      entry = &scratch;
    }
    ResultSet out(num_states_);
    out.accepted = entry->accepted;
    for (const MarkInstr& instr : entry->instrs) {
      NodeList marks;
      for (auto [child, q] : instr.atoms) {
        marks = arena_.Union(marks, (child == 1 ? g1 : g2).MarksOf(q));
      }
      if (instr.selecting) marks = arena_.Cons(n, marks);
      out.AddMarks(instr.state, marks, &arena_);
    }
    return out;
  }

  // ------------------------------------------------------------------
  // Jump classification per interned set.
  const JumpInfo& GetJump(SetId s) {
    if (options_.memoize) {
      if (static_cast<size_t>(s) < jump_cache_.size() &&
          jump_cache_[s].second) {
        return jump_cache_[s].first;
      }
      if (static_cast<size_t>(s) >= jump_cache_.size()) {
        jump_cache_.resize(s + 1);
      }
      jump_cache_[s] = {tda_.JumpFor(sets_[s]), true};
      return jump_cache_[s].first;
    }
    scratch_jump_ = tda_.JumpFor(sets_[s]);
    return scratch_jump_;
  }

  // ------------------------------------------------------------------
  // Driver.
  struct Frame {
    enum Kind : uint8_t { kNode, kTopmost } kind;
    uint8_t phase = 0;
    NodeId node = kNullNode;  // kNode: the node; kTopmost: current target
    SetId set = kNoSet;
    NodeId scope_end = kNullNode;  // kTopmost: BinaryEnd(scope), hoisted
    const Step* step = nullptr;  // kNode, from phase 1 on
    Step owned_step;             // backing storage when memoization is off
    ResultSet acc;             // kNode: Γ1; kTopmost: accumulator
    // kTopmost: merged probe over the essential labels' compressed
    // postings; its per-label cursors advance monotonically across the
    // whole enumeration (skip-table gallops past whole delta blocks), so
    // each f_t step costs amortized cursor movement, not |L| fresh seeks.
    LabelIndex::SetCursor cursor;
    bool early_stop = false;   // kTopmost: stop once every state accepted
  };

  void PushNode(NodeId n, SetId s) {
    Frame f;
    f.kind = Frame::kNode;
    f.node = n;
    f.set = s;
    frames_.push_back(std::move(f));
  }

  /// Enters the child subtree rooted at `c` with determinized set `s`.
  /// Either pushes frames (returns true) or resolves immediately into ret_
  /// (returns false).
  bool Enter(NodeId c, SetId s) {
    if (c == kNullNode || MaskOf(s).None()) {
      ret_ = ResultSet(num_states_);
      return false;
    }
    if (options_.jumping) {
      const JumpInfo& jump = GetJump(s);
      if (jump.kind != LoopKind::kNone &&
          !jump.essential.Contains(tree_.label(c))) {
        ++stats_.jumps;
        switch (jump.kind) {
          case LoopKind::kBoth: {
            // One backend BinaryEnd for the whole enumeration (on the
            // succinct backend that is an excess search, worth hoisting);
            // d_t is the cursor's first probe, f_t the subsequent ones.
            const NodeId scope_end = tree_.BinaryEnd(c);
            LabelIndex::SetCursor cursor(index_.labels(), jump.essential);
            NodeId m = cursor.First(c + 1, scope_end);
            if (m == kNullNode) break;
            Frame f;
            f.kind = Frame::kTopmost;
            f.node = m;
            f.set = s;
            f.scope_end = scope_end;
            f.acc = ResultSet(num_states_);
            f.cursor = std::move(cursor);
            f.early_stop = jump.all_nonmarking;
            frames_.push_back(std::move(f));
            return true;
          }
          case LoopKind::kLeft: {
            NodeId m = index_.LeftPathFirst(c, jump.essential);
            if (m == kNullNode) break;
            PushNode(m, s);
            return true;
          }
          case LoopKind::kRight: {
            NodeId m = index_.RightPathFirst(c, jump.essential);
            if (m == kNullNode) break;
            PushNode(m, s);
            return true;
          }
          case LoopKind::kNone:
            break;
        }
        // No essential node in range: the whole region evaluates to ∅.
        ret_ = ResultSet(num_states_);
        return false;
      }
    }
    PushNode(c, s);
    return true;
  }

  static void Accumulate(ResultSet* acc, const ResultSet& val,
                         NodeListArena* arena) {
    acc->accepted.UnionWith(val.accepted);
    for (size_t i = 0; i < val.mark_states.size(); ++i) {
      acc->AddMarks(val.mark_states[i], val.mark_lists[i], arena);
    }
  }

  ResultSet Drive(NodeId root, SetId s0) {
    if (!Enter(root, s0)) return std::move(ret_);
    while (!frames_.empty()) {
      Frame& f = frames_.back();
      if (f.kind == Frame::kNode) {
        switch (f.phase) {
          case 0: {
            ++stats_.nodes_visited;
            if (monitor_->Charge()) {
              // Deadline / cancel / budget tripped: abandon the drive.
              // Frames are cleared so the next while test exits; the
              // monitor stays stopped, so RunAt emits nothing.
              frames_.clear();
              ret_ = ResultSet(num_states_);
              continue;
            }
            if (options_.memoize) {
              f.step = &GetStep(f.set, tree_.label(f.node));
            } else {
              // Frames live in a deque, so this address is stable.
              f.owned_step = ComputeStep(f.set, tree_.label(f.node));
              f.step = &f.owned_step;
            }
            if (f.step->transitions.empty()) {
              frames_.pop_back();
              ret_ = ResultSet(num_states_);
              continue;
            }
            f.phase = 1;
            SetId r1 = InternMask(f.step->r1);
            NodeId left = tree_.Left(f.node);
            Enter(left, r1);  // immediate results land in ret_ for phase 1
            continue;
          }
          case 1: {
            f.acc = std::move(ret_);
            f.phase = 2;
            StateMask r2_mask = ComputeR2(*f.step, f.acc);
            SetId r2 = InternMask(r2_mask);
            Enter(tree_.Right(f.node), r2);
            continue;
          }
          case 2: {
            ResultSet g2 = std::move(ret_);
            ResultSet result =
                EvalTransitions(f.set, tree_.label(f.node), f.node, f.acc,
                                g2, *f.step);
            frames_.pop_back();
            ret_ = std::move(result);
            continue;
          }
        }
      } else {  // kTopmost
        if (f.phase == 0) {
          f.phase = 1;
          NodeId target = f.node;
          SetId s = f.set;
          PushNode(target, s);  // may invalidate f
          continue;
        }
        Accumulate(&f.acc, ret_, &arena_);
        // One-witness early exit: when no state of the set carries marks and
        // every state has already accepted, further witnesses cannot change
        // the result set.
        if (f.early_stop && f.acc.accepted == MaskOf(f.set)) {
          ret_ = std::move(f.acc);
          frames_.pop_back();
          continue;
        }
        NodeId next = f.cursor.First(tree_.BinaryEnd(f.node), f.scope_end);
        if (next != kNullNode) {
          ++stats_.jumps;
          f.node = next;
          SetId s = f.set;
          PushNode(next, s);  // may invalidate f
          continue;
        }
        ret_ = std::move(f.acc);
        frames_.pop_back();
        continue;
      }
    }
    return std::move(ret_);
  }

  const Asta& asta_;
  const TreeView tree_;
  const TreeIndex& index_;
  AstaEvalOptions options_;
  TdaAnalysis tda_;
  int num_states_;

  NodeListArena arena_;
  std::vector<StateMask> sets_;
  std::unordered_map<uint64_t, std::vector<SetId>> set_buckets_;
  std::unordered_map<MemoKey, Step, MemoKeyHash> step_memo_;
  std::unordered_map<MemoKey, EvalEntry, MemoKeyHash> eval_memo_;
  std::vector<std::pair<JumpInfo, bool>> jump_cache_;
  Step scratch_step_;
  JumpInfo scratch_jump_;

  std::deque<Frame> frames_;
  ResultSet ret_;
  AstaEvalStats stats_;
  ExecMonitor own_monitor_;  // never stops: options.monitor was null
  ExecMonitor* monitor_;
};

}  // namespace

// ---------------------------------------------------------------------------
// AstaRegionStream: lazy region-by-region driving of the evaluator above.

struct AstaRegionStream::Impl {
  virtual ~Impl() = default;
  virtual bool NextRegion(std::vector<NodeId>* out) = 0;
  virtual void SkipTo(NodeId target) = 0;
  virtual const AstaEvalStats& stats() const = 0;
  virtual bool streaming() const = 0;
};

namespace {

template <typename TreeView>
class RegionStreamImpl final : public AstaRegionStream::Impl {
 public:
  RegionStreamImpl(const Asta& asta, TreeView view, const TreeIndex& index,
                   const AstaEvalOptions& options)
      : view_(view), eval_(asta, view, index, options) {
    const NodeId root = view_.root();
    if (root == kNullNode) {
      done_ = true;
      return;
    }
    // Mirror the evaluator's top-level Enter: when the top determinized set
    // jumps on both children and the root label is non-essential, the
    // topmost essential nodes partition the result-bearing subtrees.
    if (options.jumping) {
      const JumpInfo jump = eval_.tda().JumpFor(asta.TopMask());
      if (jump.kind == LoopKind::kBoth &&
          !jump.essential.Contains(view_.label(root))) {
        streaming_ = true;
        scope_end_ = view_.BinaryEnd(root);
        cursor_ = LabelIndex::SetCursor(index.labels(), jump.essential);
        next_lo_ = root + 1;
        return;
      }
    }
    single_root_ = root;
  }

  bool NextRegion(std::vector<NodeId>* out) override {
    if (done_) return false;
    if (!streaming_) {
      done_ = true;
      AstaEvalResult r = eval_.RunAt(single_root_);
      stats_ = r.stats;
      if (eval_.stopped()) return false;  // partial region: never emitted
      out->insert(out->end(), r.nodes.begin(), r.nodes.end());
      return true;
    }
    NodeId m = cursor_.First(next_lo_, scope_end_);
    ++enum_jumps_;
    // Regions whose whole span precedes the seek target contain no wanted
    // match; step over them without driving the automaton.
    while (m != kNullNode && view_.BinaryEnd(m) <= skip_to_) {
      m = cursor_.First(view_.BinaryEnd(m), scope_end_);
      ++enum_jumps_;
    }
    if (m == kNullNode) {
      done_ = true;
      return false;
    }
    next_lo_ = view_.BinaryEnd(m);
    AstaEvalResult r = eval_.RunAt(m);  // cumulative stats (shared evaluator)
    stats_ = r.stats;
    if (eval_.stopped()) {  // partial region: never emitted
      done_ = true;
      return false;
    }
    out->insert(out->end(), r.nodes.begin(), r.nodes.end());
    return true;
  }

  void SkipTo(NodeId target) override {
    skip_to_ = std::max(skip_to_, target);
  }

  const AstaEvalStats& stats() const override {
    merged_ = stats_;
    merged_.jumps += enum_jumps_;
    return merged_;
  }

  bool streaming() const override { return streaming_; }

 private:
  const TreeView view_;
  AstaEvaluator<TreeView> eval_;  // persists: memo tables span regions
  bool streaming_ = false;
  bool done_ = false;
  NodeId single_root_ = kNullNode;
  NodeId scope_end_ = kNullNode;
  NodeId next_lo_ = 0;
  NodeId skip_to_ = 0;
  int64_t enum_jumps_ = 0;
  LabelIndex::SetCursor cursor_;
  AstaEvalStats stats_;
  mutable AstaEvalStats merged_;
};

}  // namespace

AstaRegionStream::AstaRegionStream(const Asta& asta, const TreeIndex& index,
                                   const AstaEvalOptions& options)
    : impl_(VisitTreeView(index, [&](auto view) -> std::unique_ptr<Impl> {
        return std::make_unique<RegionStreamImpl<decltype(view)>>(
            asta, view, index, options);
      })) {}

AstaRegionStream::AstaRegionStream(AstaRegionStream&&) noexcept = default;
AstaRegionStream& AstaRegionStream::operator=(AstaRegionStream&&) noexcept =
    default;
AstaRegionStream::~AstaRegionStream() = default;

bool AstaRegionStream::streaming() const { return impl_->streaming(); }
bool AstaRegionStream::NextRegion(std::vector<NodeId>* out) {
  return impl_->NextRegion(out);
}
void AstaRegionStream::SkipTo(NodeId target) { impl_->SkipTo(target); }
const AstaEvalStats& AstaRegionStream::stats() const { return impl_->stats(); }

AstaEvalResult EvalAsta(const Asta& asta, const TreeIndex& index,
                        const AstaEvalOptions& options) {
  return VisitTreeView(index, [&](auto view) {
    return AstaEvaluator<decltype(view)>(asta, view, index, options).Run();
  });
}

AstaEvalResult EvalAstaAt(const Asta& asta, const TreeIndex& index,
                          NodeId start, const AstaEvalOptions& options) {
  return VisitTreeView(index, [&](auto view) {
    return AstaEvaluator<decltype(view)>(asta, view, index, options)
        .RunAt(start);
  });
}

}  // namespace xpwqo
