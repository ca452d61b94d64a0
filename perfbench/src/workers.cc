#include "workers.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <thread>

#include "report.h"

namespace perfbench {

qrank::Status WorkerFleet::Spawn(const std::string& binary,
                                 const std::string& bundle,
                                 const std::string& meta,
                                 const std::string& port_file,
                                 const std::string& log_file) {
  // Everything the child touches is prepared before fork: between fork
  // and exec only async-signal-safe calls are allowed.
  const std::string bundle_flag = "--bundle=" + bundle;
  const std::string meta_flag = "--meta=" + meta;
  const std::string port_flag = "--port-file=" + port_file;
  const char* argv[] = {binary.c_str(), bundle_flag.c_str(), meta_flag.c_str(),
                        port_flag.c_str(), nullptr};
  const int log_fd =
      ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) return qrank::Status::IOError("cannot open " + log_file);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return qrank::Status::IOError("fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(binary.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(log_fd);
  RegisterChild(pid);
  children_.push_back({pid, port_file, log_file});
  return qrank::Status::OK();
}

qrank::Result<uint16_t> WorkerFleet::WaitPort(size_t i,
                                              double timeout_s) const {
  const Child& child = children_.at(i);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline && !Interrupted()) {
    std::ifstream in(child.port_file);
    unsigned port = 0;
    if (in >> port && port > 0 && port <= 65535) {
      return static_cast<uint16_t>(port);
    }
    int status = 0;
    if (::waitpid(child.pid, &status, WNOHANG) == child.pid) {
      return qrank::Status::IOError("worker exited before binding; see " +
                                    child.log_file);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return qrank::Status::IOError("worker did not write " + child.port_file);
}

double WorkerFleet::CpuSeconds() const {
  double total = 0.0;
  for (const Child& c : children_) total += ProcessCpuSeconds(c.pid);
  return total;
}

double WorkerFleet::PeakRssMiB() const {
  double total = 0.0;
  for (const Child& c : children_) total += ProcessPeakRssMiB(c.pid);
  return total;
}

qrank::Status WorkerFleet::Stop() {
  for (const Child& c : children_) ::kill(c.pid, SIGTERM);
  qrank::Status result = qrank::Status::OK();
  for (const Child& c : children_) {
    int status = 0;
    pid_t reaped = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while ((reaped = ::waitpid(c.pid, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (reaped == 0) {
      ::kill(c.pid, SIGKILL);
      reaped = ::waitpid(c.pid, &status, 0);
      result = qrank::Status::Internal("worker " + std::to_string(c.pid) +
                                       " ignored SIGTERM");
    }
    if (reaped != c.pid && result.ok()) {
      result = qrank::Status::Internal("worker " + std::to_string(c.pid) +
                                       " could not be reaped");
    }
    UnregisterChild(c.pid);
    ::unlink(c.port_file.c_str());
    ::unlink(c.log_file.c_str());
  }
  children_.clear();
  return result;
}

}  // namespace perfbench
