/**
 * @file
 * Host-time span recorder for the traced benchmark run.
 *
 * The recorder watches a simulation from the outside, through its
 * public hooks only: it installs itself as the event queue's
 * sim::TaskObserver to bracket every event callback and every fiber
 * resume→suspend interval, and the benchmark's own fibers wrap each
 * U-Net user call in an ApiScope. The three span layers nest
 *
 *   event-fire  →  fiber-run  →  U-Net API call
 *
 * and a span's self time is its duration minus the time its children
 * cover. When a fiber suspends inside an API call (the call charged
 * simulated processor time), the API span is closed at the suspend
 * and reopened as a continuation at the next resume, so API time
 * counts only while the calling fiber runs.
 *
 * Totals are kept for every span; the spans themselves are kept in
 * memory up to a fixed count and written out once, at the end.
 */

#ifndef UNET_PERFBENCH_RECORDER_HH
#define UNET_PERFBENCH_RECORDER_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/event.hh"
#include "sim/process.hh"

namespace perfbench {

/** Monotonic host time in nanoseconds. */
inline std::int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Per-layer host-time totals and scheduler counts of a traced run. */
struct LayerTotals
{
    std::uint64_t events = 0;    ///< event callbacks fired
    std::uint64_t scheduled = 0; ///< events scheduled
    std::uint64_t cancelled = 0; ///< events cancelled before firing
    std::uint64_t resumes = 0;   ///< fiber resume→suspend intervals
    std::uint64_t apiCalls = 0;  ///< wrapped U-Net user calls
    std::size_t pendingHwm = 0;  ///< most events pending at once
    std::int64_t queueNs = 0;    ///< between event callbacks
    std::int64_t eventNs = 0;    ///< event callbacks, inclusive
    std::int64_t fiberNs = 0;    ///< fiber intervals, inclusive
    std::int64_t apiNs = 0;      ///< API calls while the fiber runs

    LayerTotals &operator+=(const LayerTotals &o);
};

/** Span names; the three layers are Event, Fiber and the API calls. */
enum class SpanName : std::uint8_t {
    Event,
    Fiber,
    Send,
    Sendv,
    Pollv,
    Wait,
    PostFree,
    Flush,
    Count
};

const char *spanNameOf(SpanName n);

/** One recorded host-time span. */
struct HostSpan
{
    std::uint64_t op = 0;     ///< operation id shared by its spans
    std::int64_t start = 0;   ///< host ns
    std::int64_t end = 0;     ///< host ns
    std::uint32_t parent = 0; ///< index + 1 of the parent span; 0 = root
    SpanName name = SpanName::Event;
};

class Recorder final : public unet::sim::TaskObserver
{
  public:
    /** @param keep spans retained in memory (totals cover all). */
    explicit Recorder(std::size_t keep);

    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    /** Observe @p queue until detach(). */
    void attach(unet::sim::EventQueue &queue);
    void detach();

    /** Tag subsequent spans with operation @p op. */
    void setOp(std::uint64_t op) { currentOp = op; }

    void apiBegin(SpanName name);
    void apiEnd();

    const LayerTotals &totals() const { return _totals; }
    void resetTotals() { _totals = {}; }

    const std::vector<HostSpan> &spans() const { return _spans; }
    std::uint64_t droppedSpans() const { return _dropped; }

    /** Stop retaining spans (totals keep accumulating). */
    void stopKeeping() { keep = _spans.size(); }

    /** Write the retained spans as CSV (id,name,start,end,parent). */
    void writeCsv(std::ostream &os) const;

    void onEventScheduled(std::uint64_t seq, unet::sim::Tick when,
                          unet::sim::Order order) override;
    void onEventFireBegin(std::uint64_t seq, unet::sim::Tick when,
                          unet::sim::Order order) override;
    void onEventFireEnd(std::uint64_t seq) override;
    void onEventCancelled(std::uint64_t seq) override;
    void onFiberResume(unet::sim::Process &proc) override;
    void onFiberSuspend(unet::sim::Process &proc) override;

  private:
    struct Frame
    {
        SpanName name;
        std::int64_t start;
        std::int64_t childNs;
        std::uint32_t span; ///< index + 1 into _spans; 0 = not kept
    };

    void open(SpanName name, std::int64_t now);
    /** Close the top frame; @return its duration. */
    std::int64_t close(std::int64_t now);

    unet::sim::EventQueue *queue = nullptr;
    std::size_t keep;
    std::uint64_t currentOp = 0;
    std::int64_t lastFireEnd = 0; ///< 0 until the first event ends
    std::vector<Frame> stack;
    /** [process id] = API span parked across a suspension, or Count. */
    std::vector<SpanName> parked;
    std::vector<HostSpan> _spans;
    std::uint64_t _dropped = 0;
    LayerTotals _totals;
};

/** Times one U-Net user call; a no-op without a recorder. */
class ApiScope
{
  public:
    ApiScope(Recorder *rec, SpanName name) : rec(rec)
    {
        if (rec)
            rec->apiBegin(name);
    }

    ~ApiScope()
    {
        if (rec)
            rec->apiEnd();
    }

    ApiScope(const ApiScope &) = delete;
    ApiScope &operator=(const ApiScope &) = delete;

  private:
    Recorder *rec;
};

} // namespace perfbench

#endif // UNET_PERFBENCH_RECORDER_HH
