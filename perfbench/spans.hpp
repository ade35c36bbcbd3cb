/**
 * @file
 * The benchmark's own span recorder. Spans wrap calls the benchmark
 * makes into each layer's public functions, so no probe inside the
 * program is needed. Each span carries a name (`<layer>.<call>`),
 * start, end, its parent span on the same thread, and a request id
 * inherited from the parent unless given. Spans stay in per-thread
 * memory and are written out once, at exit, as Chrome trace-event JSON.
 *
 * A Timer always measures; it records a span only while recording is
 * on (the traced run), so the untraced run pays two clock reads per
 * timed call and nothing else.
 */
#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench
{

struct SpanRecord
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t request = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t thread = 0;
};

/** Turn span recording on or off (process-wide). */
void setRecording(bool on);
bool recording();

/** Times one call; records a span when recording is on. */
class Timer
{
  public:
    /** `request` 0 inherits the enclosing span's request id. */
    explicit Timer(const char *name, std::uint64_t request = 0);
    ~Timer();
    Timer(const Timer &) = delete;
    Timer &operator=(const Timer &) = delete;

    /** End the span now (idempotent) and return its duration in ms. */
    double stop();

  private:
    const char *name_;
    Clock::time_point start_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t request_ = 0;
    double ms_ = -1.0;
};

/** Every recorded span, all threads (call after workers joined). */
std::vector<SpanRecord> collectSpans();

/** Self time of one layer over a set of spans. */
struct LayerTime
{
    double self_ms = 0.0; ///< span time minus the time child spans cover
};

/**
 * Per-layer times, keyed by the span-name prefix before the first '.'.
 * A span's self time is its duration minus its children's durations
 * (children nest on one thread, so they never overlap each other).
 */
std::map<std::string, LayerTime>
layerTimes(const std::vector<SpanRecord> &spans);

/** Write the spans as Chrome trace-event JSON. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanRecord> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
