/**
 * @file
 * The benchmark's own span recorder.
 *
 * The traced run wraps every call the benchmark makes into a library
 * module in a Span. Spans are kept in memory (name, start, end,
 * parent, operation id) and written out when the run ends. The
 * parent is the span open on the calling thread, so a layer's self
 * time — its duration minus the time its child spans cover — never
 * depends on how the library schedules work on its pool. Spans
 * opened on threads with no open span (library pool workers) have
 * no parent and no operation; they are reported separately.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Seconds since an arbitrary fixed point (steady clock). */
inline double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** One recorded span. */
struct SpanRecord
{
    std::string name;
    double start = 0.0; ///< Seconds (steady clock).
    double end = 0.0;   ///< Seconds (steady clock).
    int parent = -1;    ///< Index of the enclosing span, -1 for none.
    int op = -1;        ///< Operation id, -1 outside any operation.
};

/** Process-wide span store; off unless a traced run is recording. */
class Tracer
{
  public:
    /** @return The process-wide tracer. */
    static Tracer &global();

    /** Start or stop recording (spans opened while off are no-ops). */
    void setRecording(bool on) { recording_.store(on); }

    /** @return True while spans are recorded. */
    bool recording() const
    {
        return recording_.load(std::memory_order_relaxed);
    }

    /** Open a span under the calling thread's open span. */
    int open(const std::string &name);

    /** Close span @p id opened by open() on this thread. */
    void close(int id);

    /** Set the operation id spans opened on this thread carry. */
    static void setOperation(int op);

    /** @return Every span recorded so far. */
    std::vector<SpanRecord> snapshot() const;

    /** Drop every recorded span. */
    void clear();

  private:
    std::atomic<bool> recording_{false};
    mutable std::mutex mutex_; ///< Guards spans_.
    std::vector<SpanRecord> spans_;
};

/** RAII span: records [construction, destruction) when recording. */
class Span
{
  public:
    explicit Span(const std::string &name)
        : id_(Tracer::global().recording()
                  ? Tracer::global().open(name)
                  : -1)
    {}

    ~Span()
    {
        if (id_ >= 0)
            Tracer::global().close(id_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int id_;
};

/** Per-layer totals derived from a span list. */
struct SelfTimes
{
    /** Span name -> summed self time in seconds. */
    std::map<std::string, double> selfSeconds;

    /** Span name -> number of spans. */
    std::map<std::string, uint64_t> calls;

    /** Summed duration of spans with no parent and an operation. */
    double rootSeconds = 0.0;

    /** Summed duration of spans recorded outside any operation. */
    double orphanSeconds = 0.0;
};

/**
 * Self time of every span: its duration minus the union of its
 * children's intervals (children of one parent may overlap only if
 * they ran on other threads).
 *
 * @param spans Recorded spans.
 * @return Per-name self time and call counts.
 */
SelfTimes selfTimes(const std::vector<SpanRecord> &spans);

/**
 * Write spans as a JSON array of {name, start_us, end_us, parent,
 * op}, with times relative to the first span's start.
 *
 * @param spans Recorded spans.
 * @param path  Output file.
 * @return True when the file was written.
 */
bool writeSpans(const std::vector<SpanRecord> &spans,
                const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
