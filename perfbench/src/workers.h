// Lifecycle of the qrank_worker processes behind query-sharded.
//
// Each worker is a real process, spawned with its port file in the
// run's private temp dir. The fleet kills and reaps every worker on
// every exit path: its destructor runs on a failed check and on the
// unwinding that follows SIGINT (the interrupt handler also sends
// SIGTERM at once), and each child is bound to the benchmark with
// PR_SET_PDEATHSIG, so even a SIGKILL of the benchmark takes the
// workers with it. Stop() reports any worker that had to be killed
// hard or could not be reaped, which fails the run.

#ifndef PERFBENCH_WORKERS_H_
#define PERFBENCH_WORKERS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

class WorkerFleet {
 public:
  WorkerFleet() = default;
  ~WorkerFleet() { Stop(); }
  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  /// Starts `binary --bundle=... --meta=... --port-file=<port_file>`,
  /// with stdout and stderr going to `log_file`.
  qrank::Status Spawn(const std::string& binary, const std::string& bundle,
                      const std::string& meta, const std::string& port_file,
                      const std::string& log_file);

  /// Waits for worker i's port file (or its early death).
  qrank::Result<uint16_t> WaitPort(size_t i, double timeout_s) const;

  /// Sum of the workers' CPU seconds so far, and of their peak RSS.
  double CpuSeconds() const;
  double PeakRssMiB() const;

  /// SIGTERM, wait, SIGKILL if needed, reap. OK when every worker
  /// exited on SIGTERM and was reaped; idempotent.
  qrank::Status Stop();

 private:
  struct Child {
    pid_t pid;
    std::string port_file;
    std::string log_file;
  };
  std::vector<Child> children_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKERS_H_
