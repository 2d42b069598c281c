// Log-linear histogram with interpolated percentiles, for the benchmark's
// own latency and span-duration samples.
//
// Each power-of-two range is split into 128 linear sub-buckets (values
// below 128 are exact), so a bucket is at most 1/128 of its magnitude wide.
// Percentiles interpolate linearly inside the bucket holding the target
// rank, treating the bucket's integer range [lo, hi] as the interval
// [lo, hi + 1). A percentile therefore moves with the sample mix instead of
// snapping to a bucket bound, which is what lets run-to-run comparisons of
// p50/p99 see shifts smaller than one bucket. (src/trace's LatencyHistogram
// reports bucket upper bounds of 1/16-wide buckets, so its percentiles of a
// steady workload read the same value on every run.)
#ifndef RWLE_E2E_BENCH_HISTOGRAM_H_
#define RWLE_E2E_BENCH_HISTOGRAM_H_

#include <bit>
#include <cstdint>
#include <vector>

namespace rwle::e2e {

class FineHistogram {
 public:
  static constexpr int kSubBucketBits = 7;
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBucketBits;
  static constexpr std::uint32_t kBucketCount =
      kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;

  void Record(std::uint64_t value) {
    ++counts_[BucketIndex(value)];
    ++count_;
    sum_ += static_cast<double>(value);
  }

  void Merge(const FineHistogram& other) {
    for (std::uint32_t i = 0; i < kBucketCount; ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }

  std::uint64_t count() const { return count_; }
  double Mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }

  // Interpolated value below which `percentile`% of the samples lie; 0 when
  // empty.
  double Percentile(double percentile) const {
    if (count_ == 0) {
      return 0.0;
    }
    const double rank = percentile / 100.0 * static_cast<double>(count_);
    std::uint64_t below = 0;
    for (std::uint32_t i = 0; i < kBucketCount; ++i) {
      const std::uint64_t here = counts_[i];
      if (here > 0 && static_cast<double>(below + here) >= rank) {
        const double fraction =
            (rank - static_cast<double>(below)) / static_cast<double>(here);
        return static_cast<double>(BucketLow(i)) +
               fraction * static_cast<double>(BucketWidth(i));
      }
      below += here;
    }
    return 0.0;  // unreachable: the last non-empty bucket reaches count_
  }

  static std::uint32_t BucketIndex(std::uint64_t value) {
    if (value < kSubBuckets) {
      return static_cast<std::uint32_t>(value);
    }
    const int msb = 63 - std::countl_zero(value);
    const int shift = msb - kSubBucketBits;
    const std::uint32_t sub =
        static_cast<std::uint32_t>(value >> shift) & (kSubBuckets - 1);
    return static_cast<std::uint32_t>(shift + 1) * kSubBuckets + sub;
  }

  static std::uint64_t BucketLow(std::uint32_t index) {
    const std::uint32_t octave = index >> kSubBucketBits;
    const std::uint64_t sub = index & (kSubBuckets - 1);
    if (octave == 0) {
      return sub;
    }
    return (std::uint64_t{kSubBuckets} + sub) << (octave - 1);
  }

  static std::uint64_t BucketWidth(std::uint32_t index) {
    const std::uint32_t octave = index >> kSubBucketBits;
    return octave == 0 ? 1 : std::uint64_t{1} << (octave - 1);
  }

 private:
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBucketCount);
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

}  // namespace rwle::e2e

#endif  // RWLE_E2E_BENCH_HISTOGRAM_H_
