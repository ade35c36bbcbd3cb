#include "spans.hpp"

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>

#include "core/json_io.hpp"

namespace perfbench
{

namespace
{

std::atomic<bool> g_recording{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{1};
const Clock::time_point g_epoch = Clock::now();

/** One thread's finished spans; owned by the registry, so they outlive
 *  the thread that wrote them. */
struct ThreadSpans
{
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
};

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadSpans>> g_registry;

struct ThreadState
{
    ThreadSpans *log = nullptr;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> stack; ///< id, req
};

thread_local ThreadState t_state;

ThreadSpans &
threadLog()
{
    if (t_state.log == nullptr) {
        auto log = std::make_unique<ThreadSpans>();
        log->thread = g_next_thread.fetch_add(1);
        std::lock_guard<std::mutex> lock(g_registry_mutex);
        t_state.log = log.get();
        g_registry.push_back(std::move(log));
    }
    return *t_state.log;
}

std::uint64_t
sinceEpochNs(Clock::time_point t)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
            .count());
}

} // namespace

void
setRecording(bool on)
{
    g_recording.store(on);
}

bool
recording()
{
    return g_recording.load(std::memory_order_relaxed);
}

Timer::Timer(const char *name, std::uint64_t request) : name_(name)
{
    if (recording()) {
        id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
        if (!t_state.stack.empty()) {
            parent_ = t_state.stack.back().first;
            if (request == 0)
                request = t_state.stack.back().second;
        }
        request_ = request;
        t_state.stack.emplace_back(id_, request_);
    }
    start_ = Clock::now();
}

Timer::~Timer()
{
    stop();
}

double
Timer::stop()
{
    if (ms_ >= 0.0)
        return ms_;
    const Clock::time_point end = Clock::now();
    ms_ = msBetween(start_, end);
    if (id_ != 0) {
        t_state.stack.pop_back();
        SpanRecord span;
        span.name = name_;
        span.id = id_;
        span.parent = parent_;
        span.request = request_;
        span.start_ns = sinceEpochNs(start_);
        span.end_ns = sinceEpochNs(end);
        ThreadSpans &log = threadLog();
        span.thread = log.thread;
        log.spans.push_back(std::move(span));
    }
    return ms_;
}

std::vector<SpanRecord>
collectSpans()
{
    std::vector<SpanRecord> out;
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (const auto &log : g_registry)
        out.insert(out.end(), log->spans.begin(), log->spans.end());
    return out;
}

std::map<std::string, LayerTime>
layerTimes(const std::vector<SpanRecord> &spans)
{
    std::map<std::uint64_t, double> child_ms;
    for (const SpanRecord &s : spans) {
        if (s.parent != 0)
            child_ms[s.parent] +=
                static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
    std::map<std::string, LayerTime> out;
    for (const SpanRecord &s : spans) {
        const std::string layer = s.name.substr(0, s.name.find('.'));
        const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        const auto it = child_ms.find(s.id);
        out[layer].self_ms +=
            ms - (it == child_ms.end() ? 0.0 : it->second);
    }
    return out;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRecord> &spans)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const SpanRecord &s : spans) {
        os << (first ? "\n" : ",\n");
        first = false;
        const std::string layer = s.name.substr(0, s.name.find('.'));
        os << "{\"name\":\"" << sipre::jsonEscape(s.name) << "\",\"cat\":\""
           << sipre::jsonEscape(layer) << "\",\"ph\":\"X\",\"ts\":"
           << sipre::jsonDouble(static_cast<double>(s.start_ns) / 1e3)
           << ",\"dur\":"
           << sipre::jsonDouble(static_cast<double>(s.end_ns - s.start_ns) /
                                1e3)
           << ",\"pid\":1,\"tid\":" << s.thread << ",\"args\":{\"id\":"
           << s.id << ",\"parent\":" << s.parent
           << ",\"request\":" << s.request << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
