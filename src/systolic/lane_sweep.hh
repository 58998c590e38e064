/**
 * @file
 * Tier-compiled SIMD sweeps: the contract between the baseline-compiled
 * engines and the per-ISA-tier sweep translation units.
 *
 * The hot vector loops of the lane engine (inter-pair lockstep rows),
 * the diagonal path (intra-pair anti-diagonal) and the streaming sDTW
 * (row-carrying query strips, workloads/sdtw_stream.hh) live in
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
    const int64_t *rowBase = nullptr; //!< per-row bank offsets
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
 * Intra-pair anti-diagonal sweep inputs/outputs (one long alignment,
 * lanes run along the anti-diagonal). Character planes are plane-major
 * with the reference stored reversed so both operands of a diagonal
 * load contiguously; both carry >= kMaxSweepLanes zeroed slack entries
 * so overhanging tail-lane loads stay in bounds (zero is a valid
 * character code for the gather-style cells). The three rotating
 * diagonal buffers are (qlen + 2 + kMaxSweepLanes) slots per layer.
 */
template <typename K>
struct DiagSweepArgs
{
    int qlen = 0;
    int rlen = 0;
    int band = 0;
    int32_t worstRaw = 0;
    bool keepTb = false;
    const int32_t *q32 = nullptr;    //!< [planes][qlen + slack]
    const int32_t *rrev32 = nullptr; //!< [planes][rlen + slack], reversed
    size_t qStride = 0;              //!< plane stride of q32
    size_t rStride = 0;              //!< plane stride of rrev32
    const int32_t *rowInit = nullptr; //!< [(rlen+1)][nLayers] raw
    const int32_t *colInit = nullptr; //!< [(qlen+1)][nLayers] raw; [0]=origin
    int32_t *const *d2 = nullptr;     //!< diagonal d-2, nLayers buffers
    int32_t *const *d1 = nullptr;     //!< diagonal d-1
    int32_t *const *cur = nullptr;    //!< diagonal d (scratch)
    core::TbPtr *tb = nullptr;        //!< band-compressed bank, [cell]
    const int64_t *rowBase = nullptr;
    const typename K::Params *params = nullptr;
    // Outputs (single pair).
    int32_t *found = nullptr;
    int32_t *bestRaw = nullptr;
    int32_t *bestI = nullptr;
    int32_t *bestJ = nullptr;
};

/**
 * Row-carrying strip sweep inputs/outputs: one strip of W consecutive
 * query rows (W = isaTierLanes of the registered tier), one row per
 * lane, against the whole reference. `row` is the DP row above the
 * strip on entry and the strip's last row on return, updated in place;
 * its column 0 leaves as `worstRaw`, the kernel's sentinel left column.
 */
template <typename K>
struct StripSweepArgs
{
    int rlen = 0;
    int32_t worstRaw = 0;           //!< sentinel left column, raw form
    const int32_t *q32 = nullptr;   //!< [W] the strip's query samples
    const int32_t *r32 = nullptr;   //!< [rlen] reference samples
    int32_t *row = nullptr;         //!< [rlen + 1] carried row, in/out
    const typename K::Params *params = nullptr;
};

/**
 * Registry keys: typeid(LaneSweepTag<K, W>) / typeid(DiagSweepTag<K, W>)
 * / typeid(StripSweepTag<K>). A strip sweep is registered once per tier,
 * at that tier's native width.
 */
template <typename K, int W>
struct LaneSweepTag
{};
template <typename K, int W>
struct DiagSweepTag
{};
template <typename K>
struct StripSweepTag
{};

template <typename K>
using LaneSweepFn = void (*)(const LaneSweepArgs<K> &);
template <typename K>
using DiagSweepFn = void (*)(const DiagSweepArgs<K> &);
template <typename K>
using StripSweepFn = void (*)(const StripSweepArgs<K> &);

/** Type-erased sweep entry point (cast back via Lane/Diag/StripSweepFn). */
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

template <typename K, int W>
DiagSweepFn<K>
lookupDiagSweep(IsaTier tier)
{
    return reinterpret_cast<DiagSweepFn<K>>(
        lookupSweep(typeid(DiagSweepTag<K, W>), tier));
}

/** The strip sweep of @p tier; its strips are isaTierLanes(tier) high. */
template <typename K>
StripSweepFn<K>
lookupStripSweep(IsaTier tier)
{
    return reinterpret_cast<StripSweepFn<K>>(
        lookupSweep(typeid(StripSweepTag<K>), tier));
}

} // namespace dphls::sim

#endif // DPHLS_SYSTOLIC_LANE_SWEEP_HH
