/**
 * @file
 * Persistent on-disk cache of computed data mappings.
 *
 * Mapping is the dominant preprocessing cost (Sec VI-D), and the
 * paper's amortization argument extends across program runs: a
 * simulation campaign (benchmark sweeps, parameter studies) solves
 * over the same sparsity pattern again and again. The cache keys a
 * serialized DataMapping (mapping_io format) by a content hash of
 * everything the mapping depends on:
 *
 *   - the matrix *structure* of A and L (row_ptr/col_idx; numeric
 *     values do not influence any mapper),
 *   - the mapper kind (by name) and tile count,
 *   - every AzulMapperOptions knob that changes the result, including
 *     the partitioner quality knobs and seed.
 *
 * Host-performance knobs (`threads`, `parallel_grain`) are excluded:
 * the partitioner is bit-identical at any thread count, so they
 * cannot change the mapping. Caveat: the key covers option *values*,
 * not algorithm *code* — after changing partitioner/mapper internals,
 * stale caches must be deleted manually (see docs/MAPPING.md).
 *
 * The directory comes from the constructor argument
 * (AzulOptions::mapping_cache_dir, which ApplyEnvOverrides fills from
 * AZUL_MAPPING_CACHE); an empty directory string disables the cache
 * (every call is a pass-through miss).
 */
#ifndef AZUL_MAPPING_MAPPING_CACHE_H_
#define AZUL_MAPPING_MAPPING_CACHE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "mapping/azul_mapper.h"
#include "mapping/mapping.h"

namespace azul {

/**
 * Content hash identifying one mapping computation. Covers matrix
 * structure, mapper name, tile count, and result-affecting options;
 * excludes numeric values and host-perf knobs.
 */
std::uint64_t MappingCacheKey(const MappingProblem& prob,
                              const std::string& mapper_name,
                              std::int32_t num_tiles,
                              const AzulMapperOptions& opts);

/**
 * Content hash of a matrix's sparsity structure alone
 * (rows/cols/row_ptr/col_idx; numeric values excluded) — the
 * structure-drift detector of the warm-start pipeline
 * (docs/TIMESTEPPING.md): two matrices hash equal iff a mapping
 * computed for one is structurally valid for the other.
 */
std::uint64_t StructureHash(const CsrMatrix& m);

/** A directory of serialized mappings addressed by cache key. */
class MappingCache {
  public:
    /** Empty dir disables the cache. */
    explicit MappingCache(std::string dir) : dir_(std::move(dir)) {}

    bool enabled() const { return !dir_.empty(); }
    const std::string& dir() const { return dir_; }

    /** File path a key maps to (valid even when disabled). */
    std::string PathForKey(std::uint64_t key) const;

    /**
     * Loads and validates the cached mapping for `key`, or nullopt on
     * miss (absent file, unreadable/corrupt contents, or a mapping
     * that fails validation against the problem — a hash collision or
     * a torn file counts as a miss, never an error). Updates the
     * hit/miss counters.
     */
    std::optional<DataMapping> TryLoad(std::uint64_t key,
                                       const MappingProblem& prob,
                                       std::int32_t num_tiles);

    /**
     * Persists a mapping under `key`, creating the directory if
     * needed. Writes to a temporary sibling and renames, so readers
     * never observe a torn file. I/O failure logs and returns false —
     * a broken cache dir must not fail the solve.
     */
    bool Store(std::uint64_t key, const DataMapping& mapping);

    int hits() const { return hits_; }
    int misses() const { return misses_; }

  private:
    std::string dir_;
    int hits_ = 0;
    int misses_ = 0;
};

} // namespace azul

#endif // AZUL_MAPPING_MAPPING_CACHE_H_
