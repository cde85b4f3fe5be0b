//===- perfbench/src/Proc.cpp - Child processes the benchmark runs --------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "Proc.h"
#include "Trace.h"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

static double tvS(const timeval &T) {
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) * 1e-6;
}

static void redirectStderr(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (Fd >= 0) {
    ::dup2(Fd, STDERR_FILENO);
    ::close(Fd);
  }
}

ChildResult runInChild(const std::function<std::vector<double>()> &Fn,
                       const std::string &StderrLog) {
  ChildResult R;
  int P[2];
  if (::pipe(P) != 0)
    return R;
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(P[0]);
    ::close(P[1]);
    return R;
  }
  if (Pid == 0) {
    ::close(P[0]);
    redirectStderr(StderrLog);
    int Code = 0;
    try {
      std::vector<double> Out = Fn();
      const char *Data = reinterpret_cast<const char *>(Out.data());
      size_t Left = Out.size() * sizeof(double);
      while (Left) {
        ssize_t N = ::write(P[1], Data, Left);
        if (N <= 0) {
          Code = 3;
          break;
        }
        Data += N;
        Left -= static_cast<size_t>(N);
      }
    } catch (const std::exception &E) {
      std::fprintf(stderr, "perfbench child: %s\n", E.what());
      Code = 2;
    }
    std::fflush(stderr);
    ::_exit(Code);
  }
  ::close(P[1]);
  std::string Bytes;
  char Buf[4096];
  for (;;) {
    ssize_t N = ::read(P[0], Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Bytes.append(Buf, static_cast<size_t>(N));
  }
  ::close(P[0]);
  int Status = 0;
  rusage Usage{};
  while (::wait4(Pid, &Status, 0, &Usage) < 0 && errno == EINTR)
    ;
  R.CpuS = tvS(Usage.ru_utime) + tvS(Usage.ru_stime);
  R.PeakRssMb = static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB -> MiB
  R.Payload.resize(Bytes.size() / sizeof(double));
  std::memcpy(R.Payload.data(), Bytes.data(),
              R.Payload.size() * sizeof(double));
  R.Ok = WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  return R;
}

double processCpuS() {
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  return tvS(U.ru_utime) + tvS(U.ru_stime);
}

ServerProcess::~ServerProcess() { stop(5); }

bool ServerProcess::start(const std::vector<std::string> &Argv,
                          const std::string &StderrLog, double TimeoutS) {
  int P[2];
  if (::pipe(P) != 0)
    return false;
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  std::fflush(stdout);
  std::fflush(stderr);
  Pid = ::fork();
  if (Pid < 0) {
    ::close(P[0]);
    ::close(P[1]);
    return false;
  }
  if (Pid == 0) {
    ::dup2(P[1], STDOUT_FILENO);
    ::close(P[0]);
    ::close(P[1]);
    redirectStderr(StderrLog);
    ::execv(Args[0], Args.data());
    ::_exit(127);
  }
  ::close(P[1]);
  OutFd = P[0];
  // "brainy serve: listening on 127.0.0.1:PORT"
  std::string Out;
  double Deadline = nowS() + TimeoutS;
  while (Out.find('\n') == std::string::npos) {
    double Left = Deadline - nowS();
    pollfd Pfd{OutFd, POLLIN, 0};
    if (Left <= 0 || ::poll(&Pfd, 1, static_cast<int>(Left * 1e3) + 1) <= 0)
      break;
    char Buf[256];
    ssize_t N = ::read(OutFd, Buf, sizeof(Buf));
    if (N <= 0)
      break;
    Out.append(Buf, static_cast<size_t>(N));
  }
  size_t Colon = Out.rfind(':');
  if (Out.find("listening on") == std::string::npos ||
      Colon == std::string::npos) {
    stop(5);
    return false;
  }
  Port = static_cast<uint16_t>(std::atoi(Out.c_str() + Colon + 1));
  return Port != 0;
}

double ServerProcess::cpuS() const {
  char Path[64];
  std::snprintf(Path, sizeof(Path), "/proc/%d/stat", static_cast<int>(Pid));
  std::FILE *F = std::fopen(Path, "r");
  if (!F)
    return 0;
  char Buf[1024] = {0};
  size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  Buf[N] = 0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall (11th and 12th after the state field).
  const char *P = std::strrchr(Buf, ')');
  if (!P)
    return 0;
  unsigned long long Utime = 0, Stime = 0;
  if (std::sscanf(P + 2,
                  "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &Utime, &Stime) != 2)
    return 0;
  return static_cast<double>(Utime + Stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::peakRssMb() const {
  char Path[64];
  std::snprintf(Path, sizeof(Path), "/proc/%d/status", static_cast<int>(Pid));
  std::FILE *F = std::fopen(Path, "r");
  if (!F)
    return 0;
  char Line[256];
  double Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Kb = std::atof(Line + 6);
  std::fclose(F);
  return Kb / 1024.0;
}

bool ServerProcess::stop(double TimeoutS) {
  if (Pid <= 0)
    return false;
  ::kill(Pid, SIGTERM);
  int Status = 0;
  bool Exited = false;
  double Deadline = nowS() + TimeoutS;
  while (nowS() < Deadline) {
    pid_t R = ::waitpid(Pid, &Status, WNOHANG);
    if (R == Pid) {
      Exited = true;
      break;
    }
    ::usleep(2000);
  }
  if (!Exited) {
    ::kill(Pid, SIGKILL);
    while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
      ;
  }
  Pid = -1;
  if (OutFd >= 0)
    ::close(OutFd);
  OutFd = -1;
  return Exited && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

LineConn::~LineConn() {
  if (Fd >= 0)
    ::close(Fd);
}

bool LineConn::connectTo(uint16_t Port) {
  Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return false;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
    return false;
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return true;
}

bool LineConn::send(const std::string &Data) {
  const char *P = Data.data();
  size_t Left = Data.size();
  while (Left) {
    ssize_t N = ::send(Fd, P, Left, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    P += N;
    Left -= static_cast<size_t>(N);
  }
  return true;
}

bool LineConn::receive() {
  char Tmp[65536];
  ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
  if (N < 0 && (errno == EINTR || errno == EAGAIN))
    return true;
  if (N <= 0)
    return false;
  Buf.append(Tmp, static_cast<size_t>(N));
  return true;
}

bool LineConn::readLines(std::vector<std::string> &Lines) {
  if (!receive())
    return false;
  size_t Pos = 0, Eol;
  while ((Eol = Buf.find('\n', Pos)) != std::string::npos) {
    Lines.emplace_back(Buf, Pos, Eol - Pos);
    Pos = Eol + 1;
  }
  Buf.erase(0, Pos);
  return true;
}

bool LineConn::readLine(std::string &Line, double TimeoutS) {
  double Deadline = nowS() + TimeoutS;
  for (;;) {
    size_t Eol = Buf.find('\n');
    if (Eol != std::string::npos) {
      Line.assign(Buf, 0, Eol);
      Buf.erase(0, Eol + 1);
      return true;
    }
    double Left = Deadline - nowS();
    pollfd Pfd{Fd, POLLIN, 0};
    if (Left <= 0 || ::poll(&Pfd, 1, static_cast<int>(Left * 1e3) + 1) <= 0 ||
        !receive())
      return false;
  }
}

} // namespace perfbench
