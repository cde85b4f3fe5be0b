//===- perfbench/src/Proc.h - Processes the benchmark runs ---*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every timed training runs in a forked child so that its CPU time and
/// peak resident memory come from the kernel's own accounting (wait4),
/// untouched by the benchmark's other work; the server is a spawned
/// `brainy serve` process. Both helpers wait for the process they start
/// before returning or in their destructor.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROC_H
#define PERFBENCH_PROC_H

#include <cstdint>
#include <functional>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// What a finished child reported.
struct ChildResult {
  bool Ok = false;             ///< exited 0 and delivered its payload
  double CpuS = 0;             ///< user + system CPU of the child
  double PeakRssMb = 0;        ///< ru_maxrss of the child, MiB
  std::vector<double> Payload; ///< values the child function returned
};

/// Forks; the child redirects stderr to \p StderrLog, runs \p Fn and sends
/// its values back over a pipe. The parent waits for the child. The caller
/// must have no other threads running (fork copies only the caller).
ChildResult runInChild(const std::function<std::vector<double>()> &Fn,
                       const std::string &StderrLog);

/// CPU seconds (user + system) this process has used so far, all threads.
double processCpuS();

/// A running `brainy serve` child on loopback.
class ServerProcess {
public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;

  /// Spawns \p Argv (argv[0] is the program path) with stderr to
  /// \p StderrLog and waits up to \p TimeoutS for its "listening on
  /// HOST:PORT" line. Returns false (process reaped) on failure.
  bool start(const std::vector<std::string> &Argv,
             const std::string &StderrLog, double TimeoutS);

  uint16_t port() const { return Port; }

  /// User + system CPU seconds the server has used so far (/proc).
  double cpuS() const;
  /// Peak resident memory so far (VmHWM), MiB.
  double peakRssMb() const;

  /// SIGTERM, then waits up to \p TimeoutS for the drain before SIGKILL.
  /// Returns true when the server exited 0 on its own.
  bool stop(double TimeoutS);

private:
  pid_t Pid = -1;
  int OutFd = -1;
  uint16_t Port = 0;
};

/// A blocking-write, poll-read loopback TCP connection speaking the
/// line protocol.
class LineConn {
public:
  LineConn() = default;
  ~LineConn();
  LineConn(const LineConn &) = delete;
  LineConn &operator=(const LineConn &) = delete;

  bool connectTo(uint16_t Port);
  int fd() const { return Fd; }

  /// Writes all of \p Data. Returns false on error.
  bool send(const std::string &Data);
  /// Reads what is available (the fd must be readable) and appends
  /// complete lines to \p Lines. Returns false on EOF or error.
  bool readLines(std::vector<std::string> &Lines);
  /// Blocks up to \p TimeoutS for one line.
  bool readLine(std::string &Line, double TimeoutS);

private:
  /// Appends what one recv returns to Buf; false on EOF or error.
  bool receive();

  int Fd = -1;
  std::string Buf; ///< received bytes not yet returned as lines
};

} // namespace perfbench

#endif // PERFBENCH_PROC_H
