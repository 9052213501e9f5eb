// Synthetic memory access patterns.
//
// A pattern produces page-granular accesses (offset within a region of
// `pages`, read or write). Patterns capture the archetypes the paper's
// motivation cites: uniform random, sequential streaming, Zipfian-skewed,
// and hot-set (a small fraction of pages receiving most accesses).
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/rng.hpp"
#include "wl/zipf.hpp"

namespace vulcan::wl {

/// One page-granular access within a region.
struct PageAccess {
  std::uint64_t page = 0;  ///< offset in pages from the region base
  bool is_write = false;
};

/// Interface for page-access generators. Implementations keep per-instance
/// cursor state (sequential position etc.); randomness comes from the
/// caller's RNG so determinism is inherited.
class AccessPattern {
 public:
  virtual ~AccessPattern() = default;

  virtual PageAccess next(sim::Rng& rng) = 0;

  /// Size of the region the pattern addresses, in pages.
  virtual std::uint64_t pages() const = 0;
};

/// Uniform random over [0, pages).
class UniformPattern final : public AccessPattern {
 public:
  UniformPattern(std::uint64_t pages, double write_ratio)
      : pages_(pages), write_ratio_(write_ratio) {}

  PageAccess next(sim::Rng& rng) override {
    return {rng.below(pages_), rng.chance(write_ratio_)};
  }
  std::uint64_t pages() const override { return pages_; }

 private:
  std::uint64_t pages_;
  double write_ratio_;
};

/// Sequential sweep with wraparound (streaming scans, e.g. Liblinear's
/// epoch passes over the training matrix).
class SequentialPattern final : public AccessPattern {
 public:
  SequentialPattern(std::uint64_t pages, double write_ratio,
                    std::uint64_t start = 0)
      : pages_(pages), write_ratio_(write_ratio), cursor_(start % pages) {}

  PageAccess next(sim::Rng& rng) override {
    const PageAccess a{cursor_, rng.chance(write_ratio_)};
    cursor_ = (cursor_ + 1) % pages_;
    return a;
  }
  std::uint64_t pages() const override { return pages_; }

 private:
  std::uint64_t pages_;
  double write_ratio_;
  std::uint64_t cursor_;
};

/// Zipfian-skewed accesses, optionally scrambled so hot pages are scattered
/// (realistic for hash-addressed stores such as Memcached).
class ZipfianPattern final : public AccessPattern {
 public:
  ZipfianPattern(std::uint64_t pages, double theta, double write_ratio,
                 bool scrambled = true)
      : plain_(pages, theta),
        scrambled_(pages, theta),
        use_scrambled_(scrambled),
        write_ratio_(write_ratio) {}

  PageAccess next(sim::Rng& rng) override {
    const std::uint64_t page =
        use_scrambled_ ? scrambled_.next(rng) : plain_.next(rng);
    return {page, rng.chance(write_ratio_)};
  }
  std::uint64_t pages() const override { return plain_.items(); }

 private:
  ZipfianGenerator plain_;
  ScrambledZipfianGenerator scrambled_;
  bool use_scrambled_;
  double write_ratio_;
};

/// Hot-set pattern: `hot_fraction` of the pages receive `hot_probability`
/// of the accesses, uniformly within each class. The paper's Memcached
/// setup ("a hot key set accessed 90% of the time") is hot_fraction ~ 0.1,
/// hot_probability 0.9.
class HotsetPattern final : public AccessPattern {
 public:
  HotsetPattern(std::uint64_t pages, double hot_fraction,
                double hot_probability, double write_ratio)
      : pages_(pages),
        hot_pages_(std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(hot_fraction *
                                          static_cast<double>(pages)))),
        hot_probability_(hot_probability),
        write_ratio_(write_ratio) {}

  PageAccess next(sim::Rng& rng) override {
    const bool hot = rng.chance(hot_probability_);
    const std::uint64_t page = hot
                                   ? rng.below(hot_pages_)
                                   : hot_pages_ + rng.below(pages_ - hot_pages_);
    return {page, rng.chance(write_ratio_)};
  }
  std::uint64_t pages() const override { return pages_; }
  std::uint64_t hot_pages() const { return hot_pages_; }

 private:
  std::uint64_t pages_;
  std::uint64_t hot_pages_;
  double hot_probability_;
  double write_ratio_;
};

/// Hot-set pattern with Zipfian popularity *inside* the hot set: the hot
/// region takes `hot_probability` of accesses (like HotsetPattern), but
/// within it keys follow a Zipfian law — realistic for caches and stores
/// where even "hot" keys differ by orders of magnitude. Under threshold-
/// based tiering this leaves a gradient: the hottest keys can survive a
/// global threshold that evicts the hot set's tail.
class SkewedHotsetPattern final : public AccessPattern {
 public:
  SkewedHotsetPattern(std::uint64_t pages, double hot_fraction,
                      double hot_probability, double write_ratio,
                      double hot_theta = 0.9)
      : pages_(pages),
        hot_pages_(std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(hot_fraction *
                                          static_cast<double>(pages)))),
        hot_probability_(hot_probability),
        write_ratio_(write_ratio),
        hot_zipf_(hot_pages_, hot_theta) {}

  PageAccess next(sim::Rng& rng) override {
    const bool hot = rng.chance(hot_probability_);
    const std::uint64_t page =
        hot ? hot_zipf_.next(rng)
            : hot_pages_ + rng.below(pages_ - hot_pages_);
    return {page, rng.chance(write_ratio_)};
  }
  std::uint64_t pages() const override { return pages_; }
  std::uint64_t hot_pages() const { return hot_pages_; }

 private:
  std::uint64_t pages_;
  std::uint64_t hot_pages_;
  double hot_probability_;
  double write_ratio_;
  ScrambledZipfianGenerator hot_zipf_;
};

}  // namespace vulcan::wl
