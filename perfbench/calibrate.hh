/**
 * @file
 * A fixed reference kernel that measures how fast this host runs
 * simulator-like code at the moment.
 *
 * Host speed on a shared machine drifts by 20-30% over minutes: a busy
 * neighbour on the same core slows memory-, allocator- and
 * syscall-bound code while an ALU loop barely notices. The simulator
 * spends its host time on exactly that kind of code, so its raw
 * operations per second drift with the machine.
 *
 * The kernel does a fixed amount of the same kinds of work, with no
 * code from src/: ucontext fiber switches (swapcontext, with its
 * signal-mask system call, as sim::Fiber does) and a binary heap of
 * pending times with small-object allocation churn (as the event queue
 * and the models' buffers do). Run right before and after a measured
 * part, its host time tells how fast the host was meanwhile. The
 * benchmark rescales each part's host time to a host on which the
 * kernel takes kReferenceS seconds, so a change to the simulator moves
 * the result and a change in the neighbours does much less.
 */

#ifndef UNET_PERFBENCH_CALIBRATE_HH
#define UNET_PERFBENCH_CALIBRATE_HH

namespace perfbench {

/** The kernel's host time that defines a reference second. Only
 *  ratios between commits matter, so any constant would do; this is
 *  about the kernel's time on a quiet 4-vCPU Xeon at 2.0 GHz (GCC
 *  12.2, Release), so reference seconds read close to host seconds
 *  there. The kernel shares the process's caches and allocator, so its
 *  time also depends a little on the workload around it: compare
 *  reference-second figures between commits on one workload, not
 *  between workloads. */
constexpr double kReferenceS = 0.080;

/** Run the reference kernel once; its host time in seconds. */
double referenceKernelS();

} // namespace perfbench

#endif // UNET_PERFBENCH_CALIBRATE_HH
