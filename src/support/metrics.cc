#include "support/metrics.h"

#include <algorithm>
#include <cmath>

#include "support/strings.h"

namespace overlap {
namespace {

/** Log2 bucket of a positive sample; clamped to the table. */
int
BucketFor(double sample)
{
    if (sample <= 0.0) return 0;
    int b = Histogram::kZeroBucket +
            static_cast<int>(std::floor(std::log2(sample)));
    return std::clamp(b, 0, Histogram::kNumBuckets - 1);
}

}  // namespace

void
Histogram::Record(double sample)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ == 0) {
        min_ = sample;
        max_ = sample;
    } else {
        min_ = std::min(min_, sample);
        max_ = std::max(max_, sample);
    }
    ++count_;
    sum_ += sample;
    ++buckets_[BucketFor(sample)];
}

Histogram::Snapshot
Histogram::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Snapshot snap;
    snap.count = count_;
    snap.sum = sum_;
    snap.min = min_;
    snap.max = max_;
    snap.buckets.assign(buckets_, buckets_ + kNumBuckets);
    return snap;
}

void
Histogram::Reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
    std::fill(buckets_, buckets_ + kNumBuckets, 0);
}

double
Histogram::Snapshot::Quantile(double q) const
{
    if (count == 0) return 0.0;
    int64_t rank = static_cast<int64_t>(
        std::ceil(q * static_cast<double>(count)));
    rank = std::clamp<int64_t>(rank, 1, count);
    int64_t seen = 0;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
        int64_t in_bucket = buckets[static_cast<size_t>(b)];
        if (seen + in_bucket < rank) {
            seen += in_bucket;
            continue;
        }
        // Interpolate between the bucket's edges by the rank's
        // fractional position among this bucket's samples, clamped to
        // the observed extremes.
        double lower = std::ldexp(1.0, b - Histogram::kZeroBucket);
        double upper = std::ldexp(1.0, b - Histogram::kZeroBucket + 1);
        double frac = static_cast<double>(rank - seen) /
                      static_cast<double>(in_bucket);
        return std::clamp(lower + frac * (upper - lower), min, max);
    }
    return max;
}

Counter*
MetricsRegistry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return slot.get();
}

Gauge*
MetricsRegistry::gauge(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = gauges_[name];
    if (!slot) slot = std::make_unique<Gauge>();
    return slot.get();
}

Histogram*
MetricsRegistry::histogram(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = histograms_[name];
    if (!slot) slot = std::make_unique<Histogram>();
    return slot.get();
}

void
MetricsRegistry::ResetAll()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, c] : counters_) c->Reset();
    for (auto& [name, g] : gauges_) g->Reset();
    for (auto& [name, h] : histograms_) h->Reset();
}

std::string
MetricsRegistry::SnapshotJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{";
    bool first = true;
    auto sep = [&]() {
        if (!first) out += ",";
        first = false;
    };
    for (const auto& [name, c] : counters_) {
        sep();
        out += StrCat("\"", name, "\":", c->value());
    }
    for (const auto& [name, g] : gauges_) {
        sep();
        out += StrCat("\"", name, "\":", g->value());
    }
    for (const auto& [name, h] : histograms_) {
        Histogram::Snapshot snap = h->snapshot();
        sep();
        out += StrCat("\"", name, "\":{\"count\":", snap.count,
                      ",\"sum\":", snap.sum, ",\"min\":", snap.min,
                      ",\"max\":", snap.max, ",\"mean\":", snap.mean(),
                      ",\"p50\":", snap.p50(), ",\"p99\":", snap.p99(),
                      ",\"p999\":", snap.p999(), "}");
    }
    out += "}";
    return out;
}

}  // namespace overlap
