// The xpathd process under test: spawned with its default settings over a
// saved collection, observed through /proc, stopped with SIGTERM.
#ifndef XBENCH_SERVER_H_
#define XBENCH_SERVER_H_

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace xbench {

class XpathdProcess {
 public:
  XpathdProcess() = default;
  ~XpathdProcess() { Stop(); }
  XpathdProcess(const XpathdProcess&) = delete;
  XpathdProcess& operator=(const XpathdProcess&) = delete;

  /// Starts `binary --index index_dir --port 0 --port-file ...` (every
  /// other flag at its default: 2 workers, queue 64, 1 s scrubber, 1 s
  /// deadline) and waits until it has written its bound port. stderr goes
  /// to `log_path`. False if it exits or does not listen within 30 s.
  bool Start(const std::string& binary, const std::string& index_dir,
             const std::string& work_dir, const std::string& log_path);
  /// SIGTERM, then wait for exit (SIGKILL after 10 s). Idempotent.
  /// Returns the exit status of a clean exit, or -1.
  int Stop();

  uint16_t port() const { return port_; }
  /// utime + stime of the process so far, in seconds.
  double CpuSeconds() const;
  /// Peak resident set (VmHWM), in MB.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// The host's cumulative steal and total CPU ticks from /proc/stat.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

}  // namespace xbench

#endif  // XBENCH_SERVER_H_
