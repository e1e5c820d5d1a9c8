#include "load.h"

#include <poll.h>
#include <time.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>

#include "common.h"
#include "http.h"

namespace xbench {
namespace {

constexpr double kFailed = std::numeric_limits<double>::infinity();

// Records one finished request into `r`.
void Account(const Workload& workload, const Oracle& oracle,
             const Request& request, bool transport_ok,
             const HttpReply& reply, double latency_ms, LoadResult* r) {
  r->attempted++;
  r->done_ns.push_back(NowNs());
  if (!transport_ok) {
    r->transport++;
    r->latency_ms.push_back(kFailed);
    if (r->first_error.empty()) r->first_error = "transport failure";
    return;
  }
  if (reply.status != 200) {
    r->non200++;
    r->latency_ms.push_back(kFailed);
    if (r->first_error.empty()) {
      r->first_error = "HTTP " + std::to_string(reply.status) + " for " +
                       RequestTarget(workload, request);
    }
    return;
  }
  const Check check = CheckResponse(workload, oracle, request, reply.body);
  if (!check.ok) {
    r->mismatches++;
    r->latency_ms.push_back(kFailed);
    if (r->first_error.empty()) {
      r->first_error = "oracle mismatch for " +
                       RequestTarget(workload, request) + ": " + check.why;
    }
    return;
  }
  r->ok++;
  r->latency_ms.push_back(latency_ms);
  if (latency_ms <= workload.latency_limit_ms) r->good++;
}

void Merge(LoadResult&& from, LoadResult* into) {
  into->latency_ms.insert(into->latency_ms.end(), from.latency_ms.begin(),
                          from.latency_ms.end());
  into->done_ns.insert(into->done_ns.end(), from.done_ns.begin(),
                       from.done_ns.end());
  into->attempted += from.attempted;
  into->ok += from.ok;
  into->good += from.good;
  into->non200 += from.non200;
  into->transport += from.transport;
  into->mismatches += from.mismatches;
  if (into->first_error.empty()) into->first_error = from.first_error;
}

}  // namespace

LoadResult RunClosedLoop(uint16_t port, const Workload& workload,
                         const Oracle& oracle, uint64_t seed,
                         int connections, double seconds,
                         int64_t min_samples, SpanLog* spans,
                         int segments, const std::function<void()>& tick) {
  std::vector<LoadResult> per_thread(connections);
  std::vector<SpanLog> logs(connections);
  std::atomic<int64_t> completed{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start, soft_stop, hard_stop;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& r = per_thread[c];
      SpanLog* log = spans ? &logs[c] : nullptr;
      RequestStream stream(seed, workload.name, c);
      HttpConn conn;
      const bool connected = conn.Connect(port);
      ready++;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (!connected) {
        r.transport++;
        r.attempted++;
        r.first_error = "connect failed";
        return;
      }
      for (int64_t id = c;; id += connections) {
        const Clock::time_point now = Clock::now();
        if (now >= hard_stop ||
            (now >= soft_stop && completed.load() >= min_samples)) {
          break;
        }
        const Request request = workload.Next(&stream);
        const std::string bytes = GetRequest(RequestTarget(workload, request));
        HttpReply reply;
        ScopedSpan span(log, id, "load.request");
        const Clock::time_point t0 = Clock::now();
        bool ok;
        {
          ScopedSpan send(log, id, "net.send", span.id());
          ok = conn.Send(bytes);
        }
        {
          ScopedSpan wait(log, id, "net.wait_reply", span.id());
          ok = ok && conn.Read(&reply);
          wait.Count("bytes", reply.wire_bytes);
        }
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
        {
          ScopedSpan check(log, id, "load.check", span.id());
          Account(workload, oracle, request, ok, reply, ms, &r);
        }
        completed++;
        if (!ok && !conn.Connect(port)) break;
      }
    });
  }
  while (ready.load() < connections) std::this_thread::yield();
  start = Clock::now();
  soft_stop = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
  hard_stop = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(2 * seconds));
  go.store(true, std::memory_order_release);
  if (tick) {
    tick();
    for (int i = 1; i < segments; ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds * i / segments)));
      tick();
    }
  }
  for (std::thread& t : threads) t.join();
  if (tick) tick();
  LoadResult total;
  total.seconds = SecondsSince(start);
  for (int c = 0; c < connections; ++c) {
    Merge(std::move(per_thread[c]), &total);
    if (spans) spans->Append(std::move(logs[c]));
  }
  return total;
}

LoadResult RunOpenLoop(uint16_t port, const Workload& workload,
                       const Oracle& oracle, uint64_t seed, double rate,
                       double seconds) {
  struct Pending {
    Request request;
    int64_t due_ns;
  };
  constexpr int kConns = 2;
  HttpConn conns[kConns];
  std::deque<Pending> pending[kConns];
  std::mutex mu;  // guards pending[]
  LoadResult result;
  for (HttpConn& c : conns) {
    if (!c.Connect(port)) {
      result.attempted = result.transport = 1;
      result.first_error = "connect failed";
      return result;
    }
  }
  std::atomic<int64_t> sent{0};
  std::atomic<bool> sender_done{false};
  const int64_t start_ns = NowNs() + 1'000'000;  // 1 ms head start
  const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);

  std::thread sender([&] {
    xpwqo::Random arrivals = SeededRandom(seed, workload.name, 100);
    RequestStream picks(seed, workload.name, 101);
    double due = static_cast<double>(start_ns);
    for (;;) {
      // Exponential gaps: Poisson arrivals at `rate`.
      due += -std::log(1.0 - arrivals.NextDouble()) / rate * 1e9;
      if (due >= static_cast<double>(end_ns)) break;
      const int64_t due_ns = static_cast<int64_t>(due);
      timespec ts{static_cast<time_t>(due_ns / 1'000'000'000),
                  static_cast<long>(due_ns % 1'000'000'000)};
      while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
             EINTR) {
      }
      const Request request = workload.Next(&picks);
      const std::string bytes = GetRequest(RequestTarget(workload, request));
      int c = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        c = pending[0].size() <= pending[1].size() ? 0 : 1;
        pending[c].push_back({request, due_ns});
      }
      const int64_t late = NowNs() - due_ns;
      result.late_ms.push_back(late / 1e6);  // sender-owned until join
      if (!conns[c].Send(bytes)) break;
      sent++;
    }
    sender_done = true;
  });

  LoadResult received;
  std::thread receiver([&] {
    pollfd fds[kConns];
    for (int c = 0; c < kConns; ++c) fds[c] = {conns[c].fd(), POLLIN, 0};
    int64_t give_up_ns = -1;
    for (;;) {
      if (sender_done && received.attempted >= sent.load()) break;
      if (sender_done && give_up_ns < 0) give_up_ns = NowNs() + 10'000'000'000;
      if (give_up_ns > 0 && NowNs() > give_up_ns) break;
      if (::poll(fds, kConns, 10) <= 0) continue;
      for (int c = 0; c < kConns; ++c) {
        if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        const bool alive = conns[c].ReadAvailable();
        HttpReply reply;
        bool malformed = false;
        while (conns[c].TryParse(&reply, &malformed)) {
          Pending p;
          {
            std::lock_guard<std::mutex> lock(mu);
            if (pending[c].empty()) {  // a reply nobody asked for
              malformed = true;
              break;
            }
            p = pending[c].front();
            pending[c].pop_front();
          }
          const double ms = (NowNs() - p.due_ns) / 1e6;
          Account(workload, oracle, p.request, true, reply, ms, &received);
        }
        if (!alive || malformed) {
          fds[c].fd = -1;  // stop polling a dead connection
        }
      }
    }
  });
  sender.join();
  receiver.join();
  const int64_t lost = sent.load() - received.attempted;
  for (int64_t i = 0; i < lost; ++i) {
    HttpReply none;
    Account(workload, oracle, Request{}, false, none, 0, &received);
  }
  received.seconds = (NowNs() - start_ns) / 1e9;
  received.late_ms = std::move(result.late_ms);
  return received;
}

std::string FetchBody(uint16_t port, const std::string& target) {
  HttpConn conn;
  HttpReply reply;
  if (!conn.Connect(port) || !conn.Send(GetRequest(target)) ||
      !conn.Read(&reply) || reply.status != 200) {
    return "";
  }
  return reply.body;
}

int64_t JsonField(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = body.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(body.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace xbench
