// On-CPU time. The end-to-end metrics are taken on these clocks instead of
// the wall clock: they count only the time a thread actually ran, so time
// it spent preempted, descheduled or (on a guest kernel built with
// CONFIG_PARAVIRT_TIME_ACCOUNTING) stolen by the hypervisor for other
// tenants does not count. On an idle core the on-CPU time of a
// single-threaded call equals its wall time.
#pragma once

#include <time.h>

namespace perfbench {

inline double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// On-CPU seconds of the calling thread.
inline double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

/// On-CPU seconds of every thread of the process, live or ended.
inline double ProcessCpuSeconds() {
  return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

}  // namespace perfbench
