#include "server.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common.h"

namespace xbench {
namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// The one running server, stopped by Fatal so no error path leaves it
// behind.
XpathdProcess* g_running = nullptr;

void StopRunning() {
  if (g_running != nullptr) g_running->Stop();
}

}  // namespace

bool XpathdProcess::Start(const std::string& binary,
                          const std::string& index_dir,
                          const std::string& work_dir,
                          const std::string& log_path) {
  const std::string port_file = work_dir + "/xpathd.port";
  ::unlink(port_file.c_str());
  // Everything the child needs is built before fork: between fork and
  // exec only async-signal-safe calls are allowed.
  std::vector<std::string> args = {binary,  "--index",     index_dir,
                                   "--port", "0",          "--port-file",
                                   port_file};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // Never outlive the benchmark, even if it dies without cleaning up.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int log = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (log >= 0) ::dup2(log, 2);
    const int null = ::open("/dev/null", O_RDWR);
    if (null >= 0) {
      ::dup2(null, 0);
      ::dup2(null, 1);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  g_running = this;
  SetFatalHook(StopRunning);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < give_up) {
    std::string text;
    if (ReadFile(port_file, &text) && !text.empty() && text.back() == '\n') {
      port_ = static_cast<uint16_t>(std::atoi(text.c_str()));
      return port_ != 0;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Stop();
  return false;
}

int XpathdProcess::Stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto kill_at =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || r < 0) break;
    if (std::chrono::steady_clock::now() > kill_at) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  port_ = 0;
  if (g_running == this) g_running = nullptr;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

double XpathdProcess::CpuSeconds() const {
  std::string stat;
  if (!ReadFile("/proc/" + std::to_string(pid_) + "/stat", &stat)) return 0;
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (in >> field); ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double XpathdProcess::PeakRssMb() const {
  std::string status;
  if (!ReadFile("/proc/" + std::to_string(pid_) + "/status", &status)) {
    return 0;
  }
  const size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return 0;
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;  // kB
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::string stat;
  if (!ReadFile("/proc/stat", &stat)) return ticks;
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  std::istringstream in(stat.substr(0, stat.find('\n')));
  std::string label;
  in >> label;
  uint64_t v = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    ticks.total += v;
    if (i == 7) ticks.steal = v;
  }
  return ticks;
}

}  // namespace xbench
