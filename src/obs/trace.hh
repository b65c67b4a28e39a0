/**
 * @file
 * Ring-buffered span recorder for per-message timelines.
 *
 * A TraceSession owns a fixed-capacity ring of Span records (allocated
 * once at enable time — no steady-state allocation) plus an interned
 * name table for tracks (timeline rows, e.g. "A.cpu") and labels
 * (fine-grained step names). When the ring fills, the oldest spans are
 * overwritten flight-recorder style and counted as dropped.
 *
 * Span taxonomy (see DESIGN.md §11):
 *  - custody spans (isCustody()) tile the message lifetime end to end:
 *    App, TxPost, TxNic / TxFw, Wire, RxKernel / RxFw, RxQueue;
 *  - detail spans (Step, AmHandler) annotate work *within* custody
 *    spans and are excluded from latency sums.
 */

#ifndef UNET_OBS_TRACE_HH
#define UNET_OBS_TRACE_HH

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace_ctx.hh"
#include "sim/time.hh"

namespace unet::obs {

/** What a span measures; custody kinds partition the message lifetime. */
enum class SpanKind : std::uint8_t {
    App,       ///< application thinking/turnaround time (bench-recorded)
    TxPost,    ///< send() posted -> descriptor reaches NIC/firmware
    TxNic,     ///< FE NIC: descriptor fetch + DMA -> first bit on wire
    TxFw,      ///< ATM i960: doorbell -> last cell on the wire
    Wire,      ///< serialization + hub/switch/fabric + receive DMA
    RxKernel,  ///< FE kernel agent: rx interrupt -> delivered to endpoint
    RxFw,      ///< ATM i960: reassembly -> delivered to endpoint
    RxQueue,   ///< sitting in the endpoint recv queue until consumed
    AmHandler, ///< detail: active-message handler dispatch
    Step,      ///< detail: one modeled cost step (Figure 3/4 rows)
    Fault,     ///< detail: an injected fault hit this message
    Count
};

const char *spanKindName(SpanKind k);

/** True for kinds that tile the message lifetime (sum to latency). */
bool isCustody(SpanKind k);

/** One recorded interval on one track. */
struct Span
{
    std::uint64_t id = 0; ///< message id; 0 = not tied to a message
    sim::Tick start = 0;
    sim::Tick end = 0;
    SpanKind kind = SpanKind::App;
    std::uint16_t track = 0; ///< name-table index of the timeline row
    std::uint16_t label = 0; ///< name-table index; 0 = use kind name
};

/** The span recorder. Created via sim::Simulation::enableTrace(). */
class TraceSession
{
  public:
    /**
     * @param capacity ring size in spans (allocated up front).
     * @param reg      registry to publish trace.* metrics into.
     */
    explicit TraceSession(std::size_t capacity = 1 << 16,
                          Registry *reg = nullptr);

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /** Allocate a fresh message id (never 0). */
    std::uint64_t
    newMessageId()
    {
        ++_messages;
        return _nextId++;
    }

    /** Intern @p s; returns a stable index (0 is the empty name). */
    std::uint16_t name(std::string_view s);

    const std::string &nameOf(std::uint16_t idx) const
    {
        return _names[idx];
    }

    /** Record one span. */
    void record(std::uint64_t id, SpanKind kind, std::uint16_t track,
                sim::Tick start, sim::Tick end, std::uint16_t label = 0);

    /** Convenience: intern the track/label names on the fly. */
    void
    record(std::uint64_t id, SpanKind kind, std::string_view track,
           sim::Tick start, sim::Tick end, std::string_view label = {})
    {
        record(id, kind, name(track), start, end,
               label.empty() ? 0 : name(label));
    }

    /** Stamp a fresh id onto @p ctx with custody starting now. */
    void
    begin(TraceContext &ctx, sim::Tick now)
    {
        ctx.id = newMessageId();
        ctx.handoff = now;
    }

    /**
     * Custody handoff: record [ctx.handoff, now] on @p track and
     * advance the handoff point. No-op for untraced messages.
     */
    void
    hop(TraceContext &ctx, SpanKind kind, std::string_view track,
        sim::Tick now, std::string_view label = {})
    {
        if (!ctx)
            return;
        record(ctx.id, kind, name(track), ctx.handoff, now,
               label.empty() ? 0 : name(label));
        ctx.handoff = now;
    }

    /** Spans currently retained (<= capacity). */
    std::size_t
    size() const
    {
        return _written < _cap ? static_cast<std::size_t>(_written)
                               : _cap;
    }

    std::size_t capacity() const { return _cap; }

    /** Total spans ever recorded. */
    std::uint64_t recorded() const { return _written; }

    /** Spans overwritten because the ring filled. */
    std::uint64_t
    dropped() const
    {
        return _written > _cap ? _written - _cap : 0;
    }

    std::uint64_t messages() const { return _messages.value(); }

    /** Visit retained spans oldest-first. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        if (_written <= _cap) {
            for (std::uint64_t i = 0; i < _written; ++i)
                f(_ring[static_cast<std::size_t>(i)]);
        } else {
            std::size_t head = static_cast<std::size_t>(_written % _cap);
            for (std::size_t i = 0; i < _cap; ++i)
                f(_ring[(head + i) % _cap]);
        }
    }

    /** Copy of the retained spans, oldest-first. */
    std::vector<Span> snapshot() const;

    /** Per-kind duration distribution (nanoseconds). */
    const Histogram &
    kindHistogram(SpanKind k) const
    {
        return _kindHist[static_cast<std::size_t>(k)];
    }

    /** Drop all retained spans (name table and ids survive). */
    void clear();

  private:
    std::vector<Span> _ring;
    std::size_t _cap;
    std::uint64_t _written = 0;
    std::uint64_t _nextId = 1;

    std::map<std::string, std::uint16_t, std::less<>> _nameIds;
    std::vector<std::string> _names;

    std::array<Histogram, static_cast<std::size_t>(SpanKind::Count)>
        _kindHist;
    sim::Counter _messages;
    sim::Counter _spans;

    std::optional<MetricGroup> _metrics;
};

} // namespace unet::obs

#endif // UNET_OBS_TRACE_HH
