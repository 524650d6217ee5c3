#ifndef OVERLAP_SUPPORT_METRICS_H_
#define OVERLAP_SUPPORT_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace overlap {

/** Monotonically increasing event count. */
class Counter {
  public:
    void Add(int64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void Reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> value_{0};
};

/** Last-written instantaneous value (e.g. a queue's peak depth). */
class Gauge {
  public:
    void Set(double value)
    {
        std::lock_guard<std::mutex> lock(mu_);
        value_ = value;
    }

    double value() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return value_;
    }

    void Reset()
    {
        std::lock_guard<std::mutex> lock(mu_);
        value_ = 0.0;
    }

  private:
    mutable std::mutex mu_;
    double value_ = 0.0;
};

/**
 * Sample distribution: count/sum/min/max plus power-of-two buckets
 * (bucket b counts samples in [2^(b-kZeroBucket), 2^(b-kZeroBucket+1)),
 * covering ~1ns .. ~17min for second-valued samples). Good enough to
 * read off a p50/p99 order of magnitude without storing samples.
 */
class Histogram {
  public:
    /// Bucket index recording samples in [1.0, 2.0).
    static constexpr int kZeroBucket = 32;
    static constexpr int kNumBuckets = 64;

    void Record(double sample);

    struct Snapshot {
        int64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
        std::vector<int64_t> buckets;  // kNumBuckets entries

        double mean() const
        {
            return count > 0 ? sum / static_cast<double>(count) : 0.0;
        }

        /**
         * Quantile over the log2 buckets with within-bucket linear
         * interpolation: the rank's fractional position inside its
         * bucket interpolates between the bucket's lower and upper
         * edge, clamped to the observed [min, max]. Monotone in q,
         * never below the bucket's lower edge, and at most the upper
         * edge (within 2x of the true quantile; exact when every
         * sample of the bucket sits at the returned point). Good
         * enough to read p50/p99/p999 SLOs straight off the registry
         * without storing samples.
         */
        double Quantile(double q) const;

        double p50() const { return Quantile(0.50); }
        double p99() const { return Quantile(0.99); }
        double p999() const { return Quantile(0.999); }
    };

    Snapshot snapshot() const;
    void Reset();

  private:
    mutable std::mutex mu_;
    int64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    int64_t buckets_[kNumBuckets] = {0};
};

/**
 * Thread-safe registry of named instruments (DESIGN.md §13). Lookup
 * interns the name on first use and returns a stable pointer, so hot
 * paths resolve their instruments once and then touch only the
 * instrument itself. There is no process-wide registry: each owner
 * (PodService::Run) records into its own, so concurrent owners never
 * see each other's samples.
 *
 * Naming convention: dotted paths grouped by subsystem, e.g.
 * "service.inference.latency_seconds".
 */
class MetricsRegistry {
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    Counter* counter(const std::string& name);
    Gauge* gauge(const std::string& name);
    Histogram* histogram(const std::string& name);

    /** Zeroes every registered instrument (registrations are kept). */
    void ResetAll();

    /**
     * One JSON object keyed by instrument name, e.g.
     * {"service.recoveries_total": 2,
     *  "service.recovery.latency_seconds":
     *      {"count":2,"sum":3e-2,"min":...,"max":...,"mean":...,
     *       "p50":...,"p99":...,"p999":...}}.
     * Gauges render as bare numbers, counters as integers; histogram
     * buckets are summarized, not dumped.
     */
    std::string SnapshotJson() const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace overlap

#endif  // OVERLAP_SUPPORT_METRICS_H_
