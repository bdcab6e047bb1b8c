#pragma once

/// \file speedref.hpp
/// Reference-speed timing for the benchmark's timed runs.
///
/// On a shared host the speed of a core moves by tens of percent within
/// seconds (other tenants on the sibling hyperthread, memory bandwidth,
/// clock frequency), and CPU time does not hide that. The timed runs
/// therefore run a fixed piece of reference work right before and right
/// after every timed section (a setup, a driver call, one trace export or
/// analysis) and report the section in reference seconds:
///
///     ref_s = cpu_s × kNominalS / mean(reference time before, after)
///
/// i.e. the seconds the section would take on a host where the reference
/// work takes kNominalS. The reference work is the benchmark's own code:
/// CSR SpMVs, a pointer chase and an integer hash loop on arrays allocated
/// once, so a change to the library cannot change its speed.
///
/// The reference time on each side is the median of a window of samples
/// that grows with the length of the sections being timed, so that a long
/// section is not scaled by one noisy sample. Before each sample the
/// reference's arrays are flushed from every cache level, so every sample
/// starts cold: the workloads' working sets are larger than the caches and
/// their speed follows the memory system's, and how much of the reference
/// the previous section left in the caches must not depend on the library.

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "ledger.hpp"

namespace perfbench {

class SpeedRef {
 public:
  /// CPU seconds the reference work takes on the reference host.
  static constexpr double kNominalS = 5.0e-3;

  SpeedRef() {
    // 5-point Laplacian on a kGrid × kGrid grid.
    row_ptr_.push_back(0);
    for (int i = 0; i < kGrid; ++i) {
      for (int j = 0; j < kGrid; ++j) {
        const int r = i * kGrid + j;
        const auto add = [&](int c, double v) {
          col_.push_back(c);
          val_.push_back(v);
        };
        if (i > 0) add(r - kGrid, -1.0);
        if (j > 0) add(r - 1, -1.0);
        add(r, 4.0);
        if (j + 1 < kGrid) add(r + 1, -1.0);
        if (i + 1 < kGrid) add(r + kGrid, -1.0);
        row_ptr_.push_back(static_cast<int>(col_.size()));
      }
    }
    x_.assign(static_cast<std::size_t>(kGrid * kGrid), 1.0);
    y_.assign(x_.size(), 0.0);
    // One random cycle through every slot (Sattolo's shuffle).
    next_.resize(kChase);
    for (std::uint32_t i = 0; i < kChase; ++i) next_[i] = i;
    std::uint64_t s = 0x243F6A8885A308D3ULL;
    for (std::uint32_t i = kChase - 1; i > 0; --i) {
      const auto j = static_cast<std::uint32_t>(mix(s) % i);
      std::swap(next_[i], next_[j]);
    }
  }

  /// Run the reference work once from cold caches; returns its CPU seconds.
  double sample() {
    evict();
    const auto t0 = Clock::now();
    run();
    samples_.push_back(seconds_since(t0));
    return samples_.back();
  }

  /// The reference work's time now: the median of a window of samples that
  /// spends about kWindowShare of the last section's CPU time (at least one
  /// sample, at most kMaxWindow).
  double window() {
    std::vector<double> w;
    double spent = 0.0;
    do {
      w.push_back(sample());
      spent += w.back();
    } while (w.size() < kMaxWindow && spent < kWindowShare * last_section_s_);
    const auto mid = w.begin() + static_cast<std::ptrdiff_t>(w.size() / 2);
    std::nth_element(w.begin(), mid, w.end());
    return *mid;
  }

  /// `cpu_s` CPU seconds of a section in reference seconds, given window()
  /// right before and right after the section.
  double scale(double cpu_s, double before, double after) {
    last_section_s_ = cpu_s;
    return cpu_s * kNominalS / (0.5 * (before + after));
  }

  /// Every sample's CPU seconds, in order.
  const std::vector<double>& samples() const { return samples_; }

  /// Keeps the reference work observable, so it is not optimised away.
  std::uint64_t sink() const { return sink_; }

 private:
  static constexpr int kGrid = 128;
  static constexpr int kSpmvReps = 4;
  static constexpr std::uint32_t kChase = 1u << 18;
  static constexpr int kChaseSteps = 50000;
  static constexpr int kMixSteps = 50000;
  static constexpr int kFormatSteps = 800;
  static constexpr double kWindowShare = 0.04;
  static constexpr std::size_t kMaxWindow = 9;

  static std::uint64_t mix(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Flush the reference's arrays from every cache level (a no-op where
  /// the instruction set has no cache-line flush).
  void evict() {
#if defined(__x86_64__) || defined(__i386__)
    const auto flush = [](const auto& v) {
      const auto* p = reinterpret_cast<const char*>(v.data());
      const std::size_t bytes = v.size() * sizeof(v[0]);
      for (std::size_t off = 0; off < bytes; off += 64) _mm_clflush(p + off);
    };
    flush(row_ptr_);
    flush(col_);
    flush(val_);
    flush(x_);
    flush(y_);
    flush(next_);
    _mm_mfence();
#endif
  }

  /// The reference work: kSpmvReps SpMVs, a kChaseSteps-long pointer
  /// chase, kMixSteps integer hashes and kFormatSteps doubles printed and
  /// parsed back.
  void run() {
    double sum = 0.0;
    for (int rep = 0; rep < kSpmvReps; ++rep) {
      x_[static_cast<std::size_t>(rep)] += 1.0;  // y = A x differs each rep
      for (std::size_t i = 0; i + 1 < row_ptr_.size(); ++i) {
        double acc = 0.0;
        for (int k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
          acc += val_[static_cast<std::size_t>(k)] *
                 x_[static_cast<std::size_t>(col_[static_cast<std::size_t>(k)])];
        }
        y_[i] = acc;
      }
      sum += y_[static_cast<std::size_t>(rep)];
    }
    std::uint32_t at = static_cast<std::uint32_t>(sink_) % kChase;
    for (int k = 0; k < kChaseSteps; ++k) at = next_[at];
    std::uint64_t state = at, h = 0;
    for (int k = 0; k < kMixSteps; ++k) h ^= mix(state);
    // Print and parse doubles, as trace export and analysis do.
    char buf[32];
    for (int k = 0; k < kFormatSteps; ++k) {
      const double v = static_cast<double>(mix(state) >> 11) * 0x1.0p-40;
      std::snprintf(buf, sizeof buf, "%.17g", v);
      sum += std::strtod(buf, nullptr);
    }
    sink_ += h + static_cast<std::uint64_t>(sum);
  }

  std::vector<int> row_ptr_, col_;
  std::vector<double> val_, x_, y_;
  std::vector<std::uint32_t> next_;
  std::uint64_t sink_ = 0;
  std::vector<double> samples_;
  double last_section_s_ = 0.0;
};

}  // namespace perfbench
