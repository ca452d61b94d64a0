// The three workloads. Each fills `report` with its end-to-end metrics
// (untraced run) or its per-layer metrics (traced run), counts every
// attempted and failed operation, and records every failed output check.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "report.h"

namespace perfbench {

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

void RunQuerySharded(const RunOptions& options, Report* report);
void RunQueryLocal(const RunOptions& options, Report* report);
void RunIngestStream(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
