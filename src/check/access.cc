#include "check/access.hh"

#if defined(UNET_CHECK) && UNET_CHECK

#include "sim/logging.hh"
#include "sim/process.hh"

namespace unet::check {

namespace {

const std::string &
contextName()
{
    static const std::string main_ctx = "<main/event context>";
    const sim::Process *p = sim::Process::current();
    return p ? p->name() : main_ctx;
}

} // namespace

void
ContextGuard::panicForeign(const char *op) const
{
    UNET_PANIC("cross-fiber access: ", op, " on ", what,
               " owned by process '",
               _owner ? _owner->name() : "<none>",
               "' from foreign fiber '", contextName(), "'");
}

void
ContextGuard::panicInterleaved(const char *op) const
{
    UNET_PANIC("interleaved access to ", what, ": ", op, " from '",
               contextName(), "' while '",
               holderOp ? holderOp : "<op>",
               "' is still in progress from another context — a "
               "mutation sequence yielded mid-update");
}

void
panicImpersonation(const sim::Process &claimed, const char *op)
{
    const sim::Process *p = sim::Process::current();
    UNET_PANIC("caller impersonation: ", op, " claims process '",
               claimed.name(), "' but runs on fiber of '", p->name(),
               "'");
}

} // namespace unet::check

#endif // UNET_CHECK
