/**
 * @file
 * Process accounting read from /proc: CPU time and peak resident set
 * of the benchmark itself or of a child process (the monitor daemon).
 */

#ifndef PERFBENCH_PROC_HH
#define PERFBENCH_PROC_HH

#include <sys/types.h>

namespace perfbench
{

/** utime + stime of a process from /proc/<pid>/stat, in seconds;
 *  negative when the file cannot be read. */
double cpuSeconds(pid_t pid);

/** VmHWM of a process from /proc/<pid>/status, in MB (2^20 bytes);
 *  negative when the file cannot be read. */
double peakRssMb(pid_t pid);

} // namespace perfbench

#endif // PERFBENCH_PROC_HH
