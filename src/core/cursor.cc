#include "core/cursor.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "asta/eval.h"
#include "baseline/nodeset_eval.h"
#include "core/value_filter.h"
#include "index/tree_index.h"
#include "tree/document.h"
#include "xpath/hybrid.h"

namespace xpwqo {
namespace internal {
namespace {

/// Baseline: the step passes run at construction (set-at-a-time evaluation
/// cannot skip them), but the final mask is scanned lazily.
class BaselineMaskImpl final : public CursorImpl {
 public:
  BaselineMaskImpl(std::vector<bool> mask, BaselineStats stats)
      : mask_(std::move(mask)), stats_(stats) {}

  bool NextBatch(std::vector<NodeId>* out) override {
    constexpr size_t kBatch = 64;
    size_t found = 0;
    while (pos_ < mask_.size() && found < kBatch) {
      if (mask_[pos_]) {
        out->push_back(static_cast<NodeId>(pos_));
        ++found;
      }
      ++pos_;
    }
    return found > 0;
  }
  void SkipHint(NodeId target) override {
    if (target > 0) pos_ = std::max(pos_, static_cast<size_t>(target));
  }
  bool streaming() const override { return true; }
  void ReportStats(CursorStats* stats) const override {
    stats->baseline = stats_;
    stats->streaming = true;
  }

 private:
  std::vector<bool> mask_;
  size_t pos_ = 0;
  BaselineStats stats_;
};

/// The automaton run, region by region; a query that cannot stream (it has
/// predicates, the top set does not jump, or jumping is off) runs as one
/// full region.
class RegionImpl final : public CursorImpl {
 public:
  explicit RegionImpl(AstaRegionStream stream) : stream_(std::move(stream)) {}

  bool NextBatch(std::vector<NodeId>* out) override {
    return stream_.NextRegion(out);
  }
  void SkipHint(NodeId target) override { stream_.SkipTo(target); }
  bool streaming() const override { return stream_.streaming(); }
  void ReportStats(CursorStats* stats) const override {
    stats->eval = stream_.stats();
    stats->streaming = stream_.streaming();
  }

 private:
  AstaRegionStream stream_;
};

/// Candidate streaming over a hybrid plan.
class HybridImpl final : public CursorImpl {
 public:
  explicit HybridImpl(HybridStream stream) : stream_(std::move(stream)) {}

  bool NextBatch(std::vector<NodeId>* out) override {
    return stream_.NextBatch(out);
  }
  void SkipHint(NodeId target) override { stream_.SkipTo(target); }
  bool streaming() const override { return stream_.streaming(); }
  void ReportStats(CursorStats* stats) const override {
    stats->hybrid = stream_.stats();
    stats->used_hybrid = true;
    stats->streaming = stream_.streaming();
  }

 private:
  HybridStream stream_;
};

AstaEvalOptions EvalOptionsFor(const QueryOptions& options,
                               ExecMonitor* monitor) {
  AstaEvalOptions eval;
  switch (options.strategy) {
    case EvalStrategy::kNaive:
      eval = {false, false, false};
      break;
    case EvalStrategy::kJumping:
      eval = {true, false, false};
      break;
    case EvalStrategy::kMemoized:
      eval = {false, true, false};
      break;
    default:  // kOptimized and the hybrid fallback
      eval = {true, true, true};
      break;
  }
  eval.monitor = monitor;
  return eval;
}

/// Builds the relaxed-plan producer for the non-baseline strategies,
/// charging `monitor`. When the query carries value predicates, OpenCursor
/// wraps the result in the verification stage (value_filter.cc).
std::unique_ptr<CursorImpl> MakeRelaxedImpl(const CursorContext& ctx,
                                            const PreparedQuery& query,
                                            const QueryOptions& options,
                                            ExecMonitor* monitor) {
  const TreeIndex& index = *ctx.index;
  if (options.strategy == EvalStrategy::kHybrid && query.hybrid() != nullptr) {
    return std::make_unique<HybridImpl>(
        HybridStream(*query.hybrid(), query.asta(), index, monitor));
  }
  // Automaton strategies (and the hybrid fallback when no plan applies).
  return std::make_unique<RegionImpl>(
      AstaRegionStream(query.asta(), index, query.streamable(),
                       EvalOptionsFor(options, monitor)));
}

/// The producer for (query, options), charging `monitor`.
StatusOr<std::unique_ptr<CursorImpl>> MakeProducer(
    const CursorContext& ctx, const PreparedQuery& query,
    const QueryOptions& options, ExecMonitor* monitor) {
  if (options.strategy == EvalStrategy::kBaseline) {
    if (ctx.doc == nullptr) {
      return Status::InvalidArgument(
          "baseline strategy requires the pointer Document; this engine "
          "was streamed straight into the succinct backend");
    }
    BaselineStats stats;
    XPWQO_ASSIGN_OR_RETURN(
        std::vector<bool> mask,
        EvalNodeSetBaselineMask(query.path(), *ctx.doc, &stats));
    return std::unique_ptr<CursorImpl>(
        new BaselineMaskImpl(std::move(mask), stats));
  }

  std::unique_ptr<CursorImpl> impl =
      MakeRelaxedImpl(ctx, query, options, monitor);
  if (query.has_value_predicates()) {
    // The plans above ran the structural relaxation; keep only candidates
    // the full path (value comparisons included) actually selects.
    impl = WrapWithValueFilter(std::move(impl), query.path(), ctx,
                               *query.alphabet_ptr(), monitor);
  }
  return impl;
}

}  // namespace

StatusOr<ResultCursor> OpenCursor(const CursorContext& ctx,
                                  const PreparedQuery& query,
                                  const QueryOptions& options,
                                  std::shared_ptr<const PreparedQuery> retained,
                                  int64_t cache_hits) {
  auto monitor = std::make_unique<ExecMonitor>(options.control);
  XPWQO_ASSIGN_OR_RETURN(std::unique_ptr<CursorImpl> impl,
                         MakeProducer(ctx, query, options, monitor.get()));
  return ResultCursor(std::move(monitor), std::move(impl), std::move(retained),
                      cache_hits);
}

}  // namespace internal

ResultCursor::ResultCursor(std::unique_ptr<ExecMonitor> monitor,
                           std::unique_ptr<internal::CursorImpl> impl,
                           std::shared_ptr<const PreparedQuery> retained,
                           int64_t cache_hits)
    : monitor_(std::move(monitor)),
      impl_(std::move(impl)),
      retained_(std::move(retained)),
      cache_hits_(cache_hits) {}

NodeId ResultCursor::Next() {
  if (done_) return kNullNode;
  if (monitor_->Charge()) {
    done_ = true;
    return kNullNode;
  }
  while (pos_ >= buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
    if (!impl_->NextBatch(&buffer_)) {
      done_ = true;
      return kNullNode;
    }
  }
  ++returned_;
  return buffer_[pos_++];
}

NodeId ResultCursor::SeekGe(NodeId target) {
  if (done_) return kNullNode;
  if (monitor_->Charge()) {
    done_ = true;
    return kNullNode;
  }
  for (;;) {
    while (pos_ < buffer_.size()) {
      const NodeId n = buffer_[pos_++];
      if (n >= target) {
        ++returned_;
        return n;
      }
    }
    impl_->SkipHint(target);
    buffer_.clear();
    pos_ = 0;
    if (!impl_->NextBatch(&buffer_)) {
      done_ = true;
      return kNullNode;
    }
  }
}

std::vector<NodeId> ResultCursor::Drain() {
  return Drain(static_cast<size_t>(-1));
}

std::vector<NodeId> ResultCursor::Drain(size_t limit) {
  std::vector<NodeId> out;
  for (size_t i = 0; i < limit; ++i) {
    const NodeId n = Next();
    if (n == kNullNode) break;
    out.push_back(n);
  }
  return out;
}

CursorStats ResultCursor::TakeStats() const {
  CursorStats stats;
  impl_->ReportStats(&stats);
  stats.returned = returned_;
  stats.eval.query_cache_hits = cache_hits_;
  return stats;
}

}  // namespace xpwqo
