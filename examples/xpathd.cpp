// xpathd — the long-lived query server: a saved index collection behind
// the governed ServingRuntime behind the epoll HTTP front end.
//
//   $ ./examples/quickstart --save-index /tmp/lib     # make an index
//   $ ./examples/xpathd --index /tmp/lib --port 8080 &
//   $ curl 'localhost:8080/query?q=//book/title'
//   $ curl 'localhost:8080/query?q=//shelf[@topic="databases"]' \
//          -H 'X-Deadline-Ms: 50'
//   $ curl localhost:8080/stats
//   $ kill -TERM %1            # graceful drain, exit 0
//
// --index accepts either a collection directory (MANIFEST present) or a
// single saved index image directory (served as document "doc").
// --port 0 (the default) binds an ephemeral port; --port-file writes the
// bound port for scripts. SIGTERM/SIGINT drain gracefully: the listener
// closes, in-flight queries finish, the runtime and scrubber join, and
// the exit code says whether the drain beat --drain-ms.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>

#include "net/server.h"
#include "persist/index_image.h"
#include "serve/serving_runtime.h"

namespace {

std::atomic<xpwqo::net::HttpServer*> g_server{nullptr};

void HandleSignal(int) {
  // RequestStop is one eventfd write — async-signal-safe.
  if (auto* server = g_server.load()) server->RequestStop();
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --index DIR [--port N] [--port-file PATH] [--threads N]\n"
      "          [--queue N] [--scrub-ms N] [--deadline-ms N] [--drain-ms N]\n"
      "\n"
      "  --index DIR      collection dir (MANIFEST) or single image dir\n"
      "  --port N         listen port (default 0 = ephemeral, printed)\n"
      "  --port-file P    write the bound port to P (for scripts)\n"
      "  --threads N      runtime worker threads (default 2)\n"
      "  --queue N        admission queue depth (default 64)\n"
      "  --scrub-ms N     periodic VerifyAll interval (default 1000, 0=off)\n"
      "  --deadline-ms N  default per-request deadline (default 1000)\n"
      "  --drain-ms N     graceful-shutdown bound (default 5000)\n",
      argv0);
  return 2;
}

bool FileExists(const std::string& path) {
  struct stat st{};
  return stat(path.c_str(), &st) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string index_dir;
  std::string port_file;
  long port = 0;
  int threads = 2;
  long queue = 64;
  long scrub_ms = 1000;
  long deadline_ms = 1000;
  long drain_ms = 5000;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](long* out) {
      if (i + 1 >= argc) return false;
      *out = std::atol(argv[++i]);
      return true;
    };
    if (!std::strcmp(argv[i], "--index") && i + 1 < argc) {
      index_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--port-file") && i + 1 < argc) {
      port_file = argv[++i];
    } else if (!std::strcmp(argv[i], "--port")) {
      if (!next(&port)) return Usage(argv[0]);
    } else if (!std::strcmp(argv[i], "--threads")) {
      long v = 0;
      if (!next(&v)) return Usage(argv[0]);
      threads = static_cast<int>(v);
    } else if (!std::strcmp(argv[i], "--queue")) {
      if (!next(&queue)) return Usage(argv[0]);
    } else if (!std::strcmp(argv[i], "--scrub-ms")) {
      if (!next(&scrub_ms)) return Usage(argv[0]);
    } else if (!std::strcmp(argv[i], "--deadline-ms")) {
      if (!next(&deadline_ms)) return Usage(argv[0]);
    } else if (!std::strcmp(argv[i], "--drain-ms")) {
      if (!next(&drain_ms)) return Usage(argv[0]);
    } else {
      return Usage(argv[0]);
    }
  }
  if (index_dir.empty() || port < 0 || port > 65535 || threads < 1) {
    return Usage(argv[0]);
  }

  // Load the collection: a MANIFEST means a saved collection; otherwise
  // treat the directory as one saved index image served as "doc". Either
  // way images map on first touch. A corrupt image degrades instead of
  // failing startup — /health still answers, and queries report the
  // corruption per row.
  xpwqo::Collection collection;
  if (FileExists(index_dir + "/MANIFEST")) {
    auto opened = xpwqo::OpenCollection(index_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "xpathd: open %s: %s\n", index_dir.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    collection = std::move(*opened);
  } else {
    xpwqo::Status added = collection.AddLazy(
        "doc", [index_dir](std::shared_ptr<xpwqo::Alphabet> alphabet) {
          return xpwqo::OpenIndexImage(index_dir, std::move(alphabet));
        });
    if (!added.ok()) {
      std::fprintf(stderr, "xpathd: %s\n", added.ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "xpathd: serving %zu document(s) from %s\n",
               collection.size(), index_dir.c_str());

  xpwqo::ServingRuntimeOptions runtime_options;
  runtime_options.num_threads = threads;
  runtime_options.max_queue = static_cast<size_t>(queue);
  runtime_options.scrub_interval = std::chrono::milliseconds(scrub_ms);
  xpwqo::ServingRuntime runtime(&collection, runtime_options);

  xpwqo::net::ServerOptions server_options;
  server_options.port = static_cast<uint16_t>(port);
  server_options.default_deadline = std::chrono::milliseconds(deadline_ms);
  server_options.drain_deadline = std::chrono::milliseconds(drain_ms);
  xpwqo::net::HttpServer server(&collection, &runtime, server_options);
  xpwqo::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "xpathd: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "xpathd: listening on 127.0.0.1:%u\n",
               static_cast<unsigned>(server.port()));
  if (!port_file.empty()) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "w")) {
      std::fprintf(f, "%u\n", static_cast<unsigned>(server.port()));
      std::fclose(f);
    }
  }

  g_server.store(&server);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  // Serve until a signal asks for the drain; bound the runtime's own
  // drain by whatever is left of the shutdown budget.
  const bool net_drained = server.WaitUntilStopped();
  g_server.store(nullptr);
  runtime.StopAccepting();
  const bool runtime_drained =
      runtime.AwaitIdle(std::chrono::milliseconds(drain_ms));
  runtime.Shutdown();

  const xpwqo::net::NetStatsSnapshot net = server.NetStats();
  std::fprintf(stderr,
               "xpathd: drained %s — %lld requests (%lld ok, %lld shed, "
               "%lld deadline), %lld connections\n",
               net_drained && runtime_drained ? "clean" : "hard",
               static_cast<long long>(net.requests),
               static_cast<long long>(net.responses_ok),
               static_cast<long long>(net.responses_shed),
               static_cast<long long>(net.responses_deadline),
               static_cast<long long>(net.connections_accepted));
  return net_drained && runtime_drained ? 0 : 1;
}
