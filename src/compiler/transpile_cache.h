// Thread-safe LRU cache of transpile artifacts, mirroring exec's
// PlanCache.
//
// Transpilation is deterministic given (circuit, processor, options) --
// the mapping anneal draws from TranspileOptions::seed -- so its result
// can be cached and shared: an ExecutionSession resolves hardware-
// targeted requests through one of these, and the serve layer's workers
// share one instance so a burst of same-shape tenant jobs transpiles
// exactly once.
#ifndef QS_COMPILER_TRANSPILE_CACHE_H
#define QS_COMPILER_TRANSPILE_CACHE_H

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/fingerprint.h"
#include "common/keyed_cache.h"
#include "compiler/pipeline.h"

namespace qs {

/// LRU cache keyed by (structural circuit, processor, options)
/// fingerprints, built on the shared keyed-artifact protocol
/// (common/keyed_cache.h): thread-safe, transpilation outside the lock,
/// in-flight de-duplication. Entries pin their artifact via shared_ptr,
/// so eviction never invalidates one still in use. The structural key
/// means every binding of a parametric circuit resolves to one artifact;
/// the artifact's physical circuit retains the parametric metadata, so
/// plans lowered from it re-bind per request.
class TranspileCache {
 public:
  /// `registry` (non-owning, nullable) surfaces the cache's counters
  /// in the caller's unified metrics under `compiler.transpile_cache.*`.
  explicit TranspileCache(std::size_t capacity = 16,
                          obs::MetricsRegistry* registry = nullptr)
      : cache_(capacity, registry, "compiler.transpile_cache") {}

  /// Returns the cached artifact for the key, transpiling through the
  /// default pipeline and inserting on miss. `cache_hit` (optional)
  /// reports whether this call was served from cache.
  std::shared_ptr<const TranspiledCircuit> get_or_transpile(
      const Circuit& logical, const Processor& proc,
      const TranspileOptions& options = {}, bool* cache_hit = nullptr);

  std::size_t size() const { return cache_.size(); }
  std::size_t capacity() const { return cache_.capacity(); }
  std::size_t hits() const { return cache_.hits(); }
  std::size_t misses() const { return cache_.misses(); }
  std::size_t evictions() const { return cache_.evictions(); }
  detail::CacheStats stats() const { return cache_.stats(); }

 private:
  struct Key {
    std::uint64_t circuit_fp;
    std::uint64_t processor_fp;
    std::uint64_t options_fp;
    bool operator==(const Key& o) const {
      return circuit_fp == o.circuit_fp && processor_fp == o.processor_fp &&
             options_fp == o.options_fp;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = k.circuit_fp;
      h = fnv::combine(k.processor_fp, h);
      h = fnv::combine(k.options_fp, h);
      return static_cast<std::size_t>(h);
    }
  };

  detail::KeyedArtifactCache<Key, KeyHash, TranspiledCircuit> cache_;
};

}  // namespace qs

#endif  // QS_COMPILER_TRANSPILE_CACHE_H
