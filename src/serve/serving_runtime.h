// ServingRuntime: a resource-governed thread pool that fans prepared
// queries across a Collection's documents and merges the per-document
// results — the production serving shape over the paper's evaluators.
//
// Governance, end to end:
//  * Admission control: a bounded queue in front of a fixed worker pool
//    (at most num_threads jobs running and max_queue waiting). Overflow is
//    shed immediately with a retryable kResourceExhausted — the runtime
//    degrades by refusing work it cannot start soon, not by queueing
//    without bound.
//  * Deadlines: checked at admission, again when a worker dequeues the job
//    (queue time counts), and amortized inside every evaluation hot loop
//    via ExecControl; a 1 ms deadline stops a multi-second sweep within a
//    check interval.
//  * Cancellation: the request's CancelToken stops queued and running work
//    cooperatively from any thread.
//  * Budgets: QueryContext::max_visited is spent across the documents a
//    job touches; exhaustion fails the job with kResourceExhausted.
//  * Retries: per-document retryable failures (kIoError from a lazy open,
//    see IsRetryable) are retried with doubling backoff, bounded by the
//    deadline; deterministic failures are not.
//
// Failure scoping: deadline, cancellation, budget and shedding are *job*
// conditions — the job's ServeResult.status carries the error and partial
// rows are whatever completed before the trip. kCorruption/kIoError are
// *document* conditions — the failing document's row records the error and
// the remaining documents keep serving (the quarantine model: one bad
// shard must not take down the query).
//
// Thread-safety: the runtime is thread-safe; Submit from any thread.
// The Collection must outlive the runtime and be past its load phase
// (lazy documents are fine — first-touch loads serialize internally).
#ifndef XPWQO_SERVE_SERVING_RUNTIME_H_
#define XPWQO_SERVE_SERVING_RUNTIME_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/collection.h"
#include "serve/query_context.h"
#include "serve/stats.h"

namespace xpwqo {

struct ServingRuntimeOptions {
  /// Worker threads — the concurrent-query cap.
  int num_threads = 4;
  /// Jobs that may wait beyond the running ones; submissions past
  /// num_threads + max_queue are shed with kResourceExhausted.
  size_t max_queue = 64;
  /// Per-document attempts for retryable failures (1 = no retries).
  int max_attempts = 3;
  /// Backoff before the first retry; doubles per attempt, and is always
  /// bounded by the job's deadline.
  std::chrono::microseconds retry_backoff{200};
  /// When > 0, the runtime owns a periodic scrubber thread that calls
  /// Collection::VerifyAll every interval — the background half of the
  /// quarantine machinery. Sweep counts surface in ServingStatsSnapshot
  /// (scrub_sweeps / scrub_docs_checked / scrub_quarantined); the thread
  /// joins cleanly with the pool on Shutdown.
  std::chrono::milliseconds scrub_interval{0};
};

/// Per-request parameters of one Submit call.
struct ServeRequest {
  QueryContext context;
  /// Cap on total returned nodes across all documents; < 0 = unlimited.
  int64_t limit = -1;
  /// Restrict the job to this one document (empty = every document of the
  /// collection). An unknown name fails the job with kNotFound.
  std::string document;
};

/// One document's slice of a job.
struct DocumentResult {
  std::string name;
  /// OK, or the per-document failure (kCorruption for a quarantined or
  /// failing shard, kIoError after retries ran out).
  Status status;
  std::vector<NodeId> nodes;
  int64_t visited = 0;
  /// Load/open attempts consumed (> 1 means retries happened).
  int attempts = 0;
};

/// The outcome of one job.
struct ServeResult {
  /// OK when the job ran to completion (individual documents may still
  /// have failed — see the rows); kDeadlineExceeded / kCancelled /
  /// kResourceExhausted when a job-level condition stopped it (rows then
  /// cover the documents finished before the trip).
  Status status;
  std::vector<DocumentResult> documents;
  int64_t total_visited = 0;
  std::chrono::microseconds latency{0};

  /// Nodes across all successful rows (document-major order).
  int64_t total_nodes() const {
    int64_t n = 0;
    for (const DocumentResult& d : documents) {
      n += static_cast<int64_t>(d.nodes.size());
    }
    return n;
  }
};

class ServingRuntime {
 public:
  explicit ServingRuntime(const Collection* collection,
                          ServingRuntimeOptions options = {});
  ~ServingRuntime();  // Shutdown(): drains admitted jobs, joins workers

  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  /// A handle on one submitted job. Copyable (shared state); Wait() from
  /// any one thread.
  class Ticket {
   public:
    /// Blocks until the job finishes (shed jobs are finished on arrival).
    const ServeResult& Wait();
    bool Ready() const;
    /// Cancels through the request's token: stops the job whether it is
    /// still queued or already evaluating.
    void Cancel();
    /// Registers `fn` to run when the job finishes — from the completing
    /// thread, or inline right here when the job is already done. One
    /// callback per ticket; it fires exactly once, strictly before any
    /// Wait() returns, so a callback that merely signals an event loop
    /// (the net layer's eventfd wakeup) cannot outlive the waiter.
    void NotifyOnDone(std::function<void()> fn);

   private:
    friend class ServingRuntime;
    struct Job;
    explicit Ticket(std::shared_ptr<Job> job) : job_(std::move(job)) {}
    std::shared_ptr<Job> job_;
  };

  /// Submits a prepared query (compiled against the collection's
  /// alphabet). Returns immediately; a full queue or a stopped runtime
  /// sheds the job, whose result is then already set (retryable
  /// kResourceExhausted, or kDeadlineExceeded for an already-expired
  /// context).
  Ticket Submit(std::shared_ptr<const PreparedQuery> query,
                ServeRequest request = {});

  /// String convenience: compiles through the collection's shared query
  /// cache (compile errors surface as the returned Status).
  StatusOr<Ticket> Submit(std::string_view xpath, ServeRequest request = {});

  /// Submit + Wait.
  ServeResult Execute(std::shared_ptr<const PreparedQuery> query,
                      ServeRequest request = {});
  StatusOr<ServeResult> Execute(std::string_view xpath,
                                ServeRequest request = {});

  /// Stops admission only (later Submits are shed; workers exit once the
  /// queue drains) — the first step of a graceful drain. Idempotent.
  void StopAccepting();

  /// Blocks until every admitted job has finished or `timeout` elapses.
  /// Returns true when the runtime is idle (empty queue, no job running).
  /// Does not stop admission or join workers — pair with StopAccepting()
  /// and a bounded wait for a deadline-limited drain, then Shutdown().
  bool AwaitIdle(std::chrono::milliseconds timeout);

  /// Stops admission, finishes every admitted job, joins the workers.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  /// Lock-free snapshot of the runtime's counters and histograms.
  ServingStatsSnapshot Stats() const;

  const ServingRuntimeOptions& options() const { return options_; }

 private:
  struct Counters;
  void WorkerLoop();
  void ScrubLoop();
  void RunJob(Ticket::Job& job);
  /// Publishes the result and wakes waiters. Counts the job's outcome
  /// unless it was shed (shed is its own counter, so once drained
  /// submitted == shed + outcome_total).
  void FinishJob(Ticket::Job& job, ServeResult result, bool shed = false);
  /// Evaluates one document into `row` with per-document retries. Returns
  /// a job-level error Status when a global condition tripped, OK
  /// otherwise (row.status carries per-document failures).
  Status RunDocument(const std::string& name, Ticket::Job& job,
                     int64_t* budget_left, int64_t* limit_left,
                     DocumentResult* row);

  const Collection* collection_;
  const ServingRuntimeOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;  // queue empty and no job in flight
  std::deque<std::shared_ptr<Ticket::Job>> queue_;
  size_t active_ = 0;  // jobs dequeued (running or being evicted)
  bool accepting_ = true;
  std::vector<std::thread> workers_;

  // Periodic VerifyAll scrubber (scrub_interval > 0).
  std::mutex scrub_mu_;
  std::condition_variable scrub_cv_;
  bool scrub_stop_ = false;
  std::thread scrubber_;

  std::unique_ptr<Counters> counters_;
};

}  // namespace xpwqo

#endif  // XPWQO_SERVE_SERVING_RUNTIME_H_
