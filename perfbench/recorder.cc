#include "recorder.hh"

#include <algorithm>
#include <ostream>

namespace perfbench {

LayerTotals &
LayerTotals::operator+=(const LayerTotals &o)
{
    events += o.events;
    scheduled += o.scheduled;
    cancelled += o.cancelled;
    resumes += o.resumes;
    apiCalls += o.apiCalls;
    pendingHwm = std::max(pendingHwm, o.pendingHwm);
    queueNs += o.queueNs;
    eventNs += o.eventNs;
    fiberNs += o.fiberNs;
    apiNs += o.apiNs;
    return *this;
}

const char *
spanNameOf(SpanName n)
{
    switch (n) {
      case SpanName::Event:
        return "event";
      case SpanName::Fiber:
        return "fiber";
      case SpanName::Send:
        return "unet.send";
      case SpanName::Sendv:
        return "unet.sendv";
      case SpanName::Pollv:
        return "unet.pollv";
      case SpanName::Wait:
        return "unet.wait";
      case SpanName::PostFree:
        return "unet.postFree";
      case SpanName::Flush:
        return "unet.flush";
      case SpanName::Count:
        break;
    }
    return "?";
}

Recorder::Recorder(std::size_t keep) : keep(keep)
{
    _spans.reserve(keep);
    stack.reserve(8);
}

void
Recorder::attach(unet::sim::EventQueue &q)
{
    queue = &q;
    lastFireEnd = 0;
    q.setTaskObserver(this);
}

void
Recorder::detach()
{
    if (queue)
        queue->setTaskObserver(nullptr);
    queue = nullptr;
    stack.clear();
    parked.clear();
}

void
Recorder::open(SpanName name, std::int64_t now)
{
    std::uint32_t idx = 0;
    if (_spans.size() < keep) {
        HostSpan s;
        s.op = currentOp;
        s.start = now;
        s.parent = stack.empty() ? 0 : stack.back().span;
        s.name = name;
        _spans.push_back(s);
        idx = static_cast<std::uint32_t>(_spans.size());
    } else {
        ++_dropped;
    }
    stack.push_back(Frame{name, now, 0, idx});
}

std::int64_t
Recorder::close(std::int64_t now)
{
    Frame f = stack.back();
    stack.pop_back();
    std::int64_t dur = now - f.start;
    if (f.span)
        _spans[f.span - 1].end = now;
    if (!stack.empty())
        stack.back().childNs += dur;
    return dur;
}

void
Recorder::apiBegin(SpanName name)
{
    ++_totals.apiCalls;
    open(name, hostNs());
}

void
Recorder::apiEnd()
{
    _totals.apiNs += close(hostNs());
}

void
Recorder::onEventScheduled(std::uint64_t, unet::sim::Tick, unet::sim::Order)
{
    ++_totals.scheduled;
    _totals.pendingHwm =
        std::max(_totals.pendingHwm, queue->pendingCount());
}

void
Recorder::onEventFireBegin(std::uint64_t, unet::sim::Tick, unet::sim::Order)
{
    ++_totals.events;
    std::int64_t now = hostNs();
    if (lastFireEnd)
        _totals.queueNs += now - lastFireEnd;
    open(SpanName::Event, now);
}

void
Recorder::onEventFireEnd(std::uint64_t)
{
    lastFireEnd = hostNs();
    _totals.eventNs += close(lastFireEnd);
}

void
Recorder::onEventCancelled(std::uint64_t)
{
    ++_totals.cancelled;
}

void
Recorder::onFiberResume(unet::sim::Process &proc)
{
    ++_totals.resumes;
    std::int64_t now = hostNs();
    open(SpanName::Fiber, now);
    std::size_t id = static_cast<std::size_t>(proc.id());
    if (id < parked.size() && parked[id] != SpanName::Count) {
        // Continue the API call the fiber was suspended in.
        open(parked[id], now);
        parked[id] = SpanName::Count;
    }
}

void
Recorder::onFiberSuspend(unet::sim::Process &proc)
{
    std::int64_t now = hostNs();
    if (stack.back().name != SpanName::Fiber) {
        // Suspended inside an API call: park it until the next resume.
        std::size_t id = static_cast<std::size_t>(proc.id());
        if (id >= parked.size())
            parked.resize(id + 1, SpanName::Count);
        parked[id] = stack.back().name;
        _totals.apiNs += close(now);
    }
    _totals.fiberNs += close(now);
}

void
Recorder::writeCsv(std::ostream &os) const
{
    std::int64_t base = _spans.empty() ? 0 : _spans.front().start;
    os << "id,name,start_ns,end_ns,parent\n";
    for (const HostSpan &s : _spans)
        os << s.op << ',' << spanNameOf(s.name) << ',' << s.start - base
           << ',' << s.end - base << ',' << s.parent << '\n';
}

} // namespace perfbench
