#include "obs/trace_span.hh"

#include <ostream>

#include "obs/obs.hh"
#include "support/mini_json.hh"

namespace ppm::obs {

namespace {

/** Raw pointer: the buffer is owned by the Tracer, which outlives
 *  every worker thread (it is only torn down at process exit). */
thread_local ThreadTrace *t_trace = nullptr;

} // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

ThreadTrace &
Tracer::threadTrace()
{
    if (!t_trace) {
        std::lock_guard<std::mutex> lock(mutex_);
        auto trace = std::make_unique<ThreadTrace>(
            static_cast<std::uint32_t>(threads_.size()));
        t_trace = trace.get();
        threads_.push_back(std::move(trace));
    }
    return *t_trace;
}

void
Tracer::setThreadName(const std::string &name)
{
    threadTrace().name_ = name;
}

std::uint64_t
Tracer::nowUs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

void
Tracer::record(const char *name, const char *cat, std::uint64_t ts_us,
               std::uint64_t dur_us)
{
    threadTrace().spans_.push_back(SpanRecord{name, cat, ts_us, dur_us});
}

unsigned
Tracer::depth()
{
    return threadTrace().depth_;
}

void
Tracer::enterSpan()
{
    ++threadTrace().depth_;
}

void
Tracer::exitSpan()
{
    --threadTrace().depth_;
}

std::uint64_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t n = 0;
    for (const auto &t : threads_)
        n += t->spans_.size();
    return n;
}

void
Tracer::exportChromeTrace(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter w;
    w.beginObject()
        .key("displayTimeUnit").string("ms")
        .key("traceEvents").beginArray();
    for (const auto &t : threads_) {
        if (!t->name_.empty()) {
            w.beginObject()
                .key("name").string("thread_name")
                .key("ph").string("M")
                .key("pid").u64(1)
                .key("tid").u64(t->tid())
                .key("args").beginObject()
                .key("name").string(t->name_)
                .endObject()
                .endObject();
        }
        for (const SpanRecord &s : t->spans_) {
            w.beginObject()
                .key("name").string(s.name)
                .key("cat").string(s.cat)
                .key("ph").string("X")
                .key("ts").u64(s.tsUs)
                .key("dur").u64(s.durUs)
                .key("pid").u64(1)
                .key("tid").u64(t->tid())
                .endObject();
        }
    }
    w.endArray().endObject().newline();
    os << w.json();
}

Span::Span(const char *name, const char *cat)
    : tracer_(tracer()), name_(name), cat_(cat)
{
    if (!tracer_)
        return;
    startUs_ = tracer_->nowUs();
    tracer_->enterSpan();
}

Span::~Span()
{
    if (!tracer_)
        return;
    tracer_->exitSpan();
    const std::uint64_t end = tracer_->nowUs();
    tracer_->record(name_, cat_, startUs_, end - startUs_);
}

} // namespace ppm::obs
