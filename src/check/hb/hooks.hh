/**
 * @file
 * The happens-before auditor's hot-path hooks.
 *
 * Every ContextGuard access and every ScopedTaskDomain retag reports
 * to the auditor, but an auditor runs only in hb audits and a few
 * tests. With none live, a hook is one inline thread-local null test;
 * the recording bodies stay out of line in auditor.cc and are reached
 * only while an Auditor exists on this thread.
 */

#ifndef UNET_CHECK_HB_HOOKS_HH
#define UNET_CHECK_HB_HOOKS_HH

#if defined(UNET_CHECK) && UNET_CHECK

#include <source_location>

namespace unet::check {
class ContextGuard;
}

namespace unet::check::hb {

class Auditor;

namespace detail {

/** The live auditor on this thread (Auditor::current()); set by the
 *  Auditor's constructor, cleared by its destructor. */
inline thread_local Auditor *liveAuditor = nullptr;

void recordGuardAccess(Auditor &auditor, const ContextGuard &guard,
                       const char *op, bool write,
                       const std::source_location &site);
void recordGuardDestroyed(Auditor &auditor, const ContextGuard &guard);

} // namespace detail

/** ContextGuard hook: one instrumented access. */
inline void
noteGuardAccess(const ContextGuard &guard, const char *op, bool write,
                const std::source_location &site)
{
    if (Auditor *a = detail::liveAuditor) [[unlikely]]
        detail::recordGuardAccess(*a, guard, op, write, site);
}

/** ContextGuard hook: drop a dying guard's shadow state. */
inline void
noteGuardDestroyed(const ContextGuard &guard)
{
    if (Auditor *a = detail::liveAuditor) [[unlikely]]
        detail::recordGuardDestroyed(*a, guard);
}

} // namespace unet::check::hb

#endif // UNET_CHECK

#endif // UNET_CHECK_HB_HOOKS_HH
