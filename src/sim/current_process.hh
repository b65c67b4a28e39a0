/**
 * @file
 * The running process, for hot paths that cannot include process.hh.
 *
 * Custody checks (check/access.hh) ask "which fiber is running?" on
 * every guarded ring access. The answer is one thread-local pointer,
 * defined inline here so the check compiles to a single load instead
 * of a call into the sim library.
 */

#ifndef UNET_SIM_CURRENT_PROCESS_HH
#define UNET_SIM_CURRENT_PROCESS_HH

namespace unet::sim {

class Process;

namespace detail {

/** Set by Process::resume() around the fiber run; nullptr in the
 *  main/event context. */
inline thread_local Process *runningProcess = nullptr;

} // namespace detail

/** The process currently executing on this thread, or nullptr (same
 *  as Process::current()). */
inline Process *
currentProcess()
{
    return detail::runningProcess;
}

} // namespace unet::sim

#endif // UNET_SIM_CURRENT_PROCESS_HH
