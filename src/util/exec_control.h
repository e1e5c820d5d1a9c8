// ExecControl / ExecMonitor: cooperative resource governance for the
// evaluation hot loops. A query carries at most one ExecControl — an
// absolute deadline, a cancellation flag, and a visited-node budget — and
// runs under exactly one ExecMonitor over it: the countdown its
// ResultCursor owns (core/cursor.h). Every stage of the query charges that
// one monitor and stops when it stops: the ASTA drive and region stream,
// the hybrid candidates, ancestor walks and suffix runs, the value
// filter's verification steps, and one charge per returned node. So a
// budget counts all of a query's work, and a deadline or cancel flag is
// checked every check_interval charges however the work is split across
// stages. The stages (src/asta, src/xpath, the value filter) take an
// ExecMonitor*, never an ExecControl, so none can start a countdown of its
// own; scripts/check.sh enforces that.
//
// The monitor amortizes the expensive checks (steady_clock::now, the
// atomic cancel load) over kDefaultCheckInterval charges, so the per-node
// cost in the hot loops is one decrement + one predicted branch — measured
// at well under 2% of the full-sweep evaluation benchmarks, while a 1 ms
// deadline still stops a multi-second sweep within a few hundred
// microseconds of work past the expiry (1024 nodes at tens of millions of
// visits per second).
//
// Layering: this lives in util/ because the evaluators (src/asta, src/sta,
// src/xpath) sit below the serving layer; src/serve/query_context.h wraps
// it in the user-facing QueryContext.
#ifndef XPWQO_UTIL_EXEC_CONTROL_H_
#define XPWQO_UTIL_EXEC_CONTROL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "util/status.h"

namespace xpwqo {

/// The resource limits one query runs under. Plain data, read only by the
/// query's ExecMonitor; must outlive it. A null ExecControl pointer (the
/// default everywhere) means ungoverned evaluation with near-zero
/// overhead.
struct ExecControl {
  using Clock = std::chrono::steady_clock;

  /// Absolute deadline; time_point::max() means none.
  Clock::time_point deadline = Clock::time_point::max();
  /// Cooperative cancellation flag (non-owning), or null. Set it to true
  /// from any thread; evaluators observe it within one check interval.
  const std::atomic<bool>* cancel = nullptr;
  /// Budget of charges for the whole query — visited nodes in every stage
  /// plus one per returned node; < 0 means unlimited. Trips exactly at the
  /// budget (the monitor shortens its last stride).
  int64_t max_visited = -1;
  /// How many charges between expensive checks (clock read + cancel
  /// load). The amortization constant: larger is cheaper per node but
  /// coarser-grained enforcement.
  int32_t check_interval = kDefaultCheckInterval;

  static constexpr int32_t kDefaultCheckInterval = 1024;

  bool has_deadline() const { return deadline != Clock::time_point::max(); }
};

/// Maps an evaluator interrupt code (kCancelled / kDeadlineExceeded /
/// kResourceExhausted) to its descriptive error Status; OK for kOk.
Status InterruptToStatus(StatusCode code);

/// A query's countdown against an ExecControl. Not thread-safe (one
/// query, one monitor, charged by its stages in turn); the shared pieces
/// (the cancel flag) are. A default-constructed or null-control monitor
/// never stops.
class ExecMonitor {
 public:
  ExecMonitor() = default;
  explicit ExecMonitor(const ExecControl* control) { Reset(control); }

  void Reset(const ExecControl* control) {
    control_ = control;
    charged_ = 0;
    stop_ = StatusCode::kOk;
    stride_ = NextStride();
    until_check_ = stride_;
  }

  /// Charges one unit of work (one visited node). Returns true when the
  /// evaluation must stop; the reason is in stop_code(). Hot-loop fast
  /// path: one decrement and one branch.
  bool Charge() {
    if (--until_check_ > 0) return false;
    return CheckNow();
  }

  /// True once a limit tripped; Charge() keeps returning true after that.
  bool stopped() const { return stop_ != StatusCode::kOk; }

  /// kOk while running; kCancelled / kDeadlineExceeded /
  /// kResourceExhausted once stopped (cancellation wins over the deadline,
  /// the deadline over the budget).
  StatusCode stop_code() const { return stop_; }

  /// The stop reason as a Status (OK while running).
  Status ToStatus() const;

 private:
  int64_t NextStride() const {
    if (control_ == nullptr) return std::numeric_limits<int64_t>::max();
    int64_t stride =
        control_->check_interval > 0 ? control_->check_interval : 1;
    if (control_->max_visited >= 0) {
      const int64_t left = control_->max_visited - charged_;
      if (left < stride) stride = left > 0 ? left : 1;
    }
    return stride;
  }

  /// The amortized slow path: account the completed stride, then run the
  /// real checks. Out of line so Charge() inlines tight.
  bool CheckNow();

  const ExecControl* control_ = nullptr;
  int64_t until_check_ = std::numeric_limits<int64_t>::max();
  int64_t stride_ = std::numeric_limits<int64_t>::max();
  int64_t charged_ = 0;
  StatusCode stop_ = StatusCode::kOk;
};

}  // namespace xpwqo

#endif  // XPWQO_UTIL_EXEC_CONTROL_H_
