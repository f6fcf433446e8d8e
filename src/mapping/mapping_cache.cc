#include "mapping/mapping_cache.h"

#include <cstring>
#include <filesystem>
#include <sstream>
#include <type_traits>

#include "mapping/mapping_io.h"
#include "util/common.h"
#include "util/logging.h"

namespace azul {

namespace {

/** Incremental FNV-1a 64 over heterogeneous fields. */
class Fnv1a {
  public:
    void
    Bytes(const void* data, std::size_t n)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x0000'0100'0000'01b3ULL;
        }
    }

    template <typename T>
    void
    Pod(const T& v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        Bytes(&v, sizeof(v));
    }

    template <typename T>
    void
    Span(const std::vector<T>& v)
    {
        // Length first, so adjacent fields cannot alias.
        Pod(static_cast<std::uint64_t>(v.size()));
        Bytes(v.data(), v.size() * sizeof(T));
    }

    void
    Str(const std::string& s)
    {
        Pod(static_cast<std::uint64_t>(s.size()));
        Bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf2'9ce4'8422'2325ULL; // FNV offset basis
};

void
HashStructure(Fnv1a& h, const CsrMatrix* m)
{
    if (m == nullptr) {
        h.Pod(std::uint64_t{0});
        return;
    }
    h.Pod(std::uint64_t{1});
    h.Pod(m->rows());
    h.Pod(m->cols());
    h.Span(m->row_ptr());
    h.Span(m->col_idx());
}

} // namespace

std::uint64_t
StructureHash(const CsrMatrix& m)
{
    Fnv1a h;
    h.Str("azul-structure-v1");
    HashStructure(h, &m);
    return h.value();
}

std::uint64_t
MappingCacheKey(const MappingProblem& prob,
                const std::string& mapper_name, std::int32_t num_tiles,
                const AzulMapperOptions& opts)
{
    Fnv1a h;
    h.Str("azul-mapping-cache-v1");
    h.Str(mapper_name);
    h.Pod(num_tiles);
    HashStructure(h, prob.a);
    HashStructure(h, prob.l);
    // Mapper options that change the result. Deliberately absent:
    // partitioner.threads and partitioner.parallel_grain (bit-identical
    // output at any thread count) and all numeric matrix values.
    h.Pod(opts.time_quantiles);
    h.Pod(opts.row_edge_weight);
    h.Pod(opts.col_edge_weight);
    h.Pod(opts.vector_slot_weight);
    h.Pod(static_cast<std::int32_t>(opts.placement));
    h.Pod(opts.grid_width);
    h.Pod(opts.grid_height);
    const PartitionerOptions& p = opts.partitioner;
    h.Pod(p.epsilon);
    h.Pod(p.coarsen_to);
    h.Pod(p.min_shrink);
    h.Pod(p.initial_tries);
    h.Pod(p.fm_passes);
    h.Pod(p.big_edge_threshold);
    h.Pod(p.seed);
    return h.value();
}

std::string
MappingCache::PathForKey(std::uint64_t key) const
{
    std::ostringstream name;
    name << "azul-mapping-" << std::hex << key << ".map";
    return (std::filesystem::path(dir_) / name.str()).string();
}

std::optional<DataMapping>
MappingCache::TryLoad(std::uint64_t key, const MappingProblem& prob,
                      std::int32_t num_tiles)
{
    if (!enabled()) {
        ++misses_;
        return std::nullopt;
    }
    const std::string path = PathForKey(key);
    try {
        DataMapping mapping = LoadMapping(path);
        AZUL_CHECK(mapping.num_tiles == num_tiles);
        mapping.Validate(prob);
        ++hits_;
        return mapping;
    } catch (const AzulError&) {
        // Absent, torn, or mismatched (hash collision) entry: recompute.
        ++misses_;
        return std::nullopt;
    }
}

bool
MappingCache::Store(std::uint64_t key, const DataMapping& mapping)
{
    if (!enabled()) {
        return false;
    }
    const std::string path = PathForKey(key);
    const std::string tmp = path + ".tmp";
    try {
        std::error_code ec;
        std::filesystem::create_directories(dir_, ec);
        SaveMapping(mapping, tmp);
        std::filesystem::rename(tmp, path);
        return true;
    } catch (const std::exception& e) {
        AZUL_LOG(kWarn) << "mapping cache: failed to store " << path
                        << ": " << e.what();
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        return false;
    }
}

} // namespace azul
