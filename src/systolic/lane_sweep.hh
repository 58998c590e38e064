/**
 * @file
 * Tier-compiled SIMD sweeps: the contract between the baseline-compiled
 * engines and the per-ISA-tier sweep translation units.
 *
 * There are two sweep kinds. The lane sweep runs the lane engine's
 * inter-pair lockstep rows. The strip sweep fills one pair as a
 * systolic strip of query rows, one row per lane; it is the fast path's
 * fill (fast_path.hh) and the streaming sDTW's row update
 * (workloads/sdtw_stream.hh). Both live in
 * `lane_sweep_impl.hh`, which is compiled three times with different
 * `-m` flags (lane_sweep_{sse2,avx2,avx512}.cc). Each TU registers its
 * instantiations in a type-erased registry keyed by (kernel, width,
 * tier); the engines look up a function pointer for the resolved
 * runtime tier (`isa_tier.hh`) and fall back to their scalar loops on a
 * miss — which keeps custom out-of-registry kernels working and makes
 * `IsaTier::Scalar` a pure forced-fallback switch.
 *
 * Everything crossing the TU boundary is plain data: raw int32 score
 * lanes (`LaneScoreTraits` maps ScoreT <-> raw, exact for int32_t and
 * for ApFixed<32,I>, whose add/sub/compare are int32 wrap-around ops on
 * the normalized raw value), widened int32 character planes
 * (`LaneCharTraits`; multi-plane for complex samples and profile
 * columns), and precomputed boundary tables — so a sweep never calls
 * back into baseline-compiled code.
 */

#ifndef DPHLS_SYSTOLIC_LANE_SWEEP_HH
#define DPHLS_SYSTOLIC_LANE_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <typeinfo>
#include <vector>

#include "core/types.hh"
#include "hls/ap_fixed.hh"
#include "kernels/detail_simd.hh"
#include "seq/alphabet.hh"
#include "systolic/isa_tier.hh"

namespace dphls::sim {

#ifdef DPHLS_VEC
// Vector types carry alignment attributes that concept/template
// argument binding drops by design; the resulting -Wignored-attributes
// is noise here (the types are only probed, never stored).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wignored-attributes"
/**
 * Kernels exposing a vectorized lane cell (one call computes one cell
 * across all W lanes on int32 vector packs). The formulas mirror
 * peFunc bit-for-bit; kernels without the hook run the scalar per-lane
 * loop instead.
 */
template <typename K, typename V>
concept KernelHasLaneCell =
    requires(const V *v, V x, const typename K::Params &p, V *s, V &ptr) {
        K::template laneCell<V>(v, v, v, x, x, p, s, ptr);
    };

/**
 * Multi-plane variant: characters too wide for one int32 lane (complex
 * samples, profile columns) arrive as `LaneCharTraits<CharT>::planes`
 * parallel int32 planes.
 */
template <typename K, typename V>
concept KernelHasLaneCellPlanes =
    requires(const V *v, const typename K::Params &p, V *s, V &ptr) {
        K::template laneCellPlanes<V>(v, v, v, v, v, p, s, ptr);
    };
#pragma GCC diagnostic pop
#endif

/** Lane-widened integer code of a character (for vector lane cells). */
template <typename C>
constexpr bool laneCharWidens =
    requires(const C &c) { c.code; } || requires(const C &c) { c.value; };

template <typename C>
inline int32_t
laneCharCode(const C &c)
{
    if constexpr (requires { c.code; })
        return static_cast<int32_t>(c.code);
    else
        return static_cast<int32_t>(c.value);
}

/**
 * How a character type widens into int32 SIMD planes. Single-code
 * characters (DNA, amino, integer samples) take the generic one-plane
 * form; wider alphabets specialize.
 */
template <typename C>
struct LaneCharTraits
{
    static constexpr bool enabled = laneCharWidens<C>;
    static constexpr int planes = 1;
    static int32_t
    plane(const C &c, int)
    {
        return laneCharCode(c);
    }
};

template <>
struct LaneCharTraits<seq::ComplexSample>
{
    static constexpr bool enabled = true;
    static constexpr int planes = 2;
    static int32_t
    plane(const seq::ComplexSample &c, int k)
    {
        return static_cast<int32_t>(k == 0 ? c.real.raw() : c.imag.raw());
    }
};

template <>
struct LaneCharTraits<seq::ProfileColumn>
{
    static constexpr bool enabled = true;
    static constexpr int planes = 5;
    static int32_t
    plane(const seq::ProfileColumn &c, int k)
    {
        return static_cast<int32_t>(c.freq[static_cast<size_t>(k)]);
    }
};

/**
 * How a score type maps onto raw int32 SIMD lanes. int32_t is the
 * identity; 32-bit ApFixed round-trips through its normalized raw
 * value (the sweeps only add/subtract/compare, which are exactly int32
 * wrap-around ops on that raw — multiplication, where the fixed-point
 * scale matters, happens in per-lane 64-bit gathers inside the lane
 * cells). Other widths stay scalar-only.
 */
template <typename S>
struct LaneScoreTraits
{
    static constexpr bool enabled = false;
};

template <>
struct LaneScoreTraits<int32_t>
{
    static constexpr bool enabled = true;
    static int32_t
    toRaw(int32_t v)
    {
        return v;
    }
    static int32_t
    fromRaw(int32_t r)
    {
        return r;
    }
};

template <int I>
struct LaneScoreTraits<hls::ApFixed<32, I>>
{
    static constexpr bool enabled = true;
    static int32_t
    toRaw(hls::ApFixed<32, I> v)
    {
        return static_cast<int32_t>(v.raw());
    }
    static hls::ApFixed<32, I>
    fromRaw(int32_t r)
    {
        return hls::ApFixed<32, I>::fromRaw(r);
    }
};

#ifdef DPHLS_VEC
/** True when kernel @p K can run the tier-compiled vector sweeps. */
template <typename K>
constexpr bool laneSweepEnabled =
    (KernelHasLaneCell<K, typename kernels::detail::simd::VecPack<4>::I32> ||
     KernelHasLaneCellPlanes<
         K, typename kernels::detail::simd::VecPack<4>::I32>) &&
    LaneCharTraits<typename K::CharT>::enabled &&
    LaneScoreTraits<typename K::ScoreT>::enabled;
#else
template <typename K>
constexpr bool laneSweepEnabled = false;
#endif

/**
 * Minimal 64-byte-aligning allocator for the SoA lane buffers: slots
 * are laid out at stride W int32s, so a 64-byte base (the AVX-512
 * vector, detail::simd::kLaneRowAlign) makes every slot naturally
 * aligned for every tier's vector width.
 */
template <typename T, size_t A>
struct AlignedAlloc
{
    using value_type = T;
    // allocator_traits can't derive the default rebind for class
    // templates with non-type parameters.
    template <typename U>
    struct rebind
    {
        using other = AlignedAlloc<U, A>;
    };

    AlignedAlloc() = default;
    template <typename U>
    AlignedAlloc(const AlignedAlloc<U, A> &)
    {}

    T *
    allocate(size_t n)
    {
        return static_cast<T *>(
            ::operator new(n * sizeof(T), std::align_val_t(A)));
    }
    void
    deallocate(T *p, size_t)
    {
        ::operator delete(p, std::align_val_t(A));
    }

    template <typename U>
    bool
    operator==(const AlignedAlloc<U, A> &) const
    {
        return true;
    }
    template <typename U>
    bool
    operator!=(const AlignedAlloc<U, A> &) const
    {
        return false;
    }
};

/** Raw int32 lane buffer at sweep alignment. */
using RawLaneBuf = std::vector<int32_t, AlignedAlloc<int32_t, 64>>;

inline constexpr int kMaxSweepLanes = 16;

/**
 * Inter-pair row sweep inputs/outputs, all plain data. Lane-indexed
 * arrays have stride W (the registered width); SoA buffers follow the
 * lane engine's [pos/column][plane][lane] layout and are 64-byte
 * aligned. `colInit` is precomputed per (row, layer) because some
 * kernels' init-column values depend on the row index (Viterbi).
 */
template <typename K>
struct LaneSweepArgs
{
    int maxq = 0;            //!< padded query length of the group
    int maxr = 0;            //!< padded reference length of the group
    int band = 0;            //!< band half-width (banded kernels)
    int32_t worstRaw = 0;    //!< sentinel-worst score, raw form
    bool keepTb = false;     //!< store traceback pointers
    const int32_t *qch32 = nullptr; //!< [maxq][planes][W] query planes
    const int32_t *rch32 = nullptr; //!< [maxr][planes][W] reference planes
    const int32_t *colInit = nullptr; //!< [(maxq+1)][nLayers] raw
    int32_t *const *rowPrev = nullptr; //!< nLayers row buffers (scratch)
    int32_t *const *rowCur = nullptr;
    core::TbPtr *tb = nullptr;        //!< bank base ([cell][W])
    core::TbPtr *tbScratch = nullptr; //!< one [W] slot when !keepTb
    const int64_t *rowBase = nullptr; //!< row i's bank offset at [i-1]
    const int32_t *qlen = nullptr;    //!< [W] per-lane query lengths
    const int32_t *rlen = nullptr;    //!< [W] per-lane reference lengths
    const typename K::Params *params = nullptr;
    // Outputs, [W] each: running-optimum reduction state per lane.
    int32_t *found = nullptr;
    int32_t *bestRaw = nullptr;
    int32_t *bestI = nullptr;
    int32_t *bestJ = nullptr;
};

/**
 * Strip sweep inputs/outputs: DP-HLS's query chunking (Fig. 2C) on SIMD
 * lanes, for one pair. The sweep fills query rows 1..qlen in strips of
 * W rows (W = isaTierLanes of the registered tier), one row per lane,
 * with the reference streaming through the lanes. `rows` holds the DP
 * row above the first strip on entry (the init row, or a streamed
 * row); between strips it carries each strip's last row, and on return
 * it holds row qlen over that row's band window, updated in place.
 *
 * Character planes are plane-major with at least kMaxSweepLanes zeroed
 * slack entries past their last character, so the last strip's loads
 * stay in bounds: query entry i - 1 is row i, reference entry j is
 * column j (entry 0 is padding). The carried rows carry the same slack
 * past column rlen.
 *
 * With `keepTb`, cell (i, j) of lane k = (i-1) % W in strip
 * s = (i-1) / W lands at tb[stripBase[s] + (j + k - jlo(sW + 1)) * W + k]
 * (buildTbStripBase in engine_common.hh). With `track`, the outputs are
 * the first strictly-best eligible cell in (row, col) order; Global and
 * SemiGlobal kernels track only the strip holding row qlen.
 */
template <typename K>
struct StripSweepArgs
{
    int qlen = 0;            //!< rows to fill
    int rlen = 0;
    int band = 0;            //!< band half-width (banded kernels)
    int32_t worstRaw = 0;    //!< sentinel-worst score, raw form
    bool keepTb = false;     //!< store traceback pointers
    bool track = false;      //!< track the optimum
    const int32_t *q32 = nullptr; //!< [planes][qStride] query planes
    const int32_t *r32 = nullptr; //!< [planes][rStride] reference planes
    size_t qStride = 0;
    size_t rStride = 0;
    const int32_t *colInit = nullptr; //!< [(qlen+1)][nLayers] raw
    int32_t *const *rows = nullptr;   //!< nLayers carried rows, in/out
    core::TbPtr *tb = nullptr;        //!< traceback bank
    const int64_t *stripBase = nullptr; //!< per-strip bank offsets
    const typename K::Params *params = nullptr;
    // Outputs (when tracking).
    int32_t *found = nullptr;
    int32_t *bestRaw = nullptr;
    int32_t *bestI = nullptr;
    int32_t *bestJ = nullptr;
};

/**
 * Registry keys: typeid(LaneSweepTag<K, W>) / typeid(StripSweepTag<K>).
 * A strip sweep is registered once per tier, at that tier's native
 * width.
 */
template <typename K, int W>
struct LaneSweepTag
{};
template <typename K>
struct StripSweepTag
{};

template <typename K>
using LaneSweepFn = void (*)(const LaneSweepArgs<K> &);
template <typename K>
using StripSweepFn = void (*)(const StripSweepArgs<K> &);

/** Type-erased sweep entry point (cast back via Lane/StripSweepFn). */
using SweepFnErased = void (*)();

/** Called by the tier TUs' static registrars (thread-safe after main). */
void registerSweep(const std::type_info &tag, IsaTier tier,
                   SweepFnErased fn);

/** nullptr when (tag, tier) has no registered sweep -> scalar fallback. */
SweepFnErased lookupSweep(const std::type_info &tag, IsaTier tier);

/** Typed lookup helpers. */
template <typename K, int W>
LaneSweepFn<K>
lookupLaneSweep(IsaTier tier)
{
    return reinterpret_cast<LaneSweepFn<K>>(
        lookupSweep(typeid(LaneSweepTag<K, W>), tier));
}

/** A kernel's strip sweep at one tier, and the height of its strips. */
template <typename K>
struct StripSweep
{
    StripSweepFn<K> fn = nullptr; //!< null: fill with a scalar loop
    int lanes = 1;                //!< W, isaTierLanes of the tier
};

/**
 * The strip sweep of resolved tier @p tier. Misses (fn null) at
 * IsaTier::Scalar and for kernels outside the registry.
 */
template <typename K>
StripSweep<K>
lookupStripSweep(IsaTier tier)
{
    const auto fn = reinterpret_cast<StripSweepFn<K>>(
        lookupSweep(typeid(StripSweepTag<K>), tier));
    return {fn, fn ? isaTierLanes(tier) : 1};
}

} // namespace dphls::sim

#endif // DPHLS_SYSTOLIC_LANE_SWEEP_HH
