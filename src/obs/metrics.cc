#include "obs/metrics.hh"

#include <algorithm>
#include <ostream>

#include "support/mini_json.hh"

namespace ppm::obs {

std::uint64_t
Histogram::count() const
{
    std::uint64_t n = 0;
    for (unsigned i = 0; i < kBuckets; ++i)
        n += bucket(i);
    return n;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

void
Registry::dumpText(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, c] : counters_)
        os << name << " " << c->value() << "\n";
    for (const auto &[name, g] : gauges_)
        os << name << " " << g->value() << "\n";
    for (const auto &[name, h] : histograms_) {
        os << name << " count=" << h->count() << " buckets=[";
        bool first = true;
        for (unsigned i = 0; i < Histogram::kBuckets; ++i) {
            if (h->bucket(i) == 0)
                continue;
            if (!first)
                os << " ";
            first = false;
            // Bucket i holds values with bit_width == i.
            os << "<=" << ((i == 0) ? 0 : ((1ULL << i) - 1)) << ":"
               << h->bucket(i);
        }
        os << "]\n";
    }
}

void
Registry::dumpJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter w;
    w.beginObject().key("schema").string("ppm-metrics-v1");

    w.key("counters").beginObject();
    for (const auto &[name, c] : counters_)
        w.key(name).u64(c->value());
    w.endObject();

    w.key("gauges").beginObject();
    for (const auto &[name, g] : gauges_) {
        w.key(name).beginObject()
            .key("value").i64(g->value())
            .key("max").i64(std::max(g->max(), g->value()))
            .endObject();
    }
    w.endObject();

    w.key("histograms").beginObject();
    for (const auto &[name, h] : histograms_) {
        w.key(name).beginObject().key("count").u64(h->count());
        w.key("buckets").beginArray();
        for (unsigned i = 0; i < Histogram::kBuckets; ++i)
            w.u64(h->bucket(i));
        w.endArray().endObject();
    }
    w.endObject().endObject().newline();
    os << w.json();
}

} // namespace ppm::obs
