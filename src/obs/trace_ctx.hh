/**
 * @file
 * The trace context that travels with a message.
 *
 * Custody-handoff tracing: a TraceContext is stamped onto a message when
 * the application posts it and is copied along with the message through
 * every queue, descriptor, frame, and cell it passes through. Each
 * custody transfer records the span [ctx.handoff, now] and advances
 * ctx.handoff to now, so a message's custody spans *partition* the
 * interval from send-post to final consumption — their durations sum
 * exactly to the end-to-end latency, even when hardware stages overlap.
 *
 * The hook sites are always compiled in; while no TraceSession is
 * enabled each costs one null test of sim.trace().
 */

#ifndef UNET_OBS_TRACE_CTX_HH
#define UNET_OBS_TRACE_CTX_HH

#include <cstdint>

#include "sim/time.hh"

namespace unet::obs {

/** Per-message trace state; id 0 means "not traced". */
struct TraceContext
{
    std::uint64_t id = 0;
    sim::Tick handoff = 0;

    explicit operator bool() const { return id != 0; }
};

} // namespace unet::obs

#endif // UNET_OBS_TRACE_CTX_HH
