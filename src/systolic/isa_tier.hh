/**
 * @file
 * Runtime ISA-tier selection for the host SIMD paths.
 *
 * The lane and strip sweep bodies are compiled once per ISA tier (SSE2
 * baseline, AVX2, AVX-512) into separate translation units with the
 * matching -m flags; at runtime the widest tier the CPU supports is
 * picked once via CPUID and dispatched through the sweep registry
 * (`lane_sweep.hh`). The tier is a *dispatch-time* property, never a
 * result-affecting one: every tier computes bit-identical scores,
 * CIGARs and cycle statistics (enforced by tests/test_isa_tiers.cc and
 * tests/test_fastpath_equivalence.cc), so it deliberately stays out of
 * `engineConfigSalt`.
 *
 * `IsaTier::Scalar` forces the scalar fallback loops (no vector sweep
 * at all) and exists for differential testing; `Auto` resolves to the
 * widest supported tier. The `DPHLS_ISA_TIER` environment variable
 * caps what `Auto` resolves to (used by the forced-tier CI job).
 */

#ifndef DPHLS_SYSTOLIC_ISA_TIER_HH
#define DPHLS_SYSTOLIC_ISA_TIER_HH

#include <cstdint>
#include <string_view>

namespace dphls::sim {

/** Host SIMD tier of the lane sweeps, widening left to right. */
enum class IsaTier : uint8_t
{
    Auto,   //!< resolve to the widest supported tier at startup
    Scalar, //!< force the scalar per-lane loop (testing)
    Sse2,   //!< 128-bit packs, 4 lanes (x86-64 baseline codegen)
    Avx2,   //!< 256-bit packs, 8 lanes
    Avx512, //!< 512-bit packs, 16 lanes
};

/** Canonical lower-case name ("auto", "sse2", ...). */
const char *isaTierName(IsaTier tier);

/** Parse a tier name; returns false on unknown input. */
bool parseIsaTier(std::string_view name, IsaTier &out);

/** True if this host can execute @p tier (Scalar/Sse2 always can). */
bool isaTierSupported(IsaTier tier);

/**
 * Widest tier this host supports, probed once via CPUID. The
 * DPHLS_ISA_TIER environment variable (when set to a supported tier)
 * caps the answer, so whole test suites can be pinned to a fallback
 * tier without touching every config.
 */
IsaTier detectIsaTier();

/**
 * Resolve a configured tier: Auto becomes detectIsaTier(); explicit
 * tiers are validated against the host (throws std::invalid_argument
 * for an unsupported request, e.g. --isa-tier avx512 on an SSE2 box).
 */
IsaTier resolveIsaTier(IsaTier requested);

/** Lockstep lane count of a tier's native vector width. */
constexpr int
isaTierLanes(IsaTier tier)
{
    switch (tier) {
      case IsaTier::Avx512:
        return 16;
      case IsaTier::Avx2:
        return 8;
      default:
        return 4; // Sse2 native width; Scalar groups like the baseline
    }
}

/**
 * Per-tier seed for the CPU backend's cells/sec EWMA (host/backend.hh):
 * the cost-model router needs a sane throughput guess before the first
 * measurement lands, and one hardcoded baseline mis-calibrates routing
 * on hosts whose lane engine runs 2-4x the SSE2 rate.
 */
double isaTierSeedCellsPerSec(IsaTier tier);

} // namespace dphls::sim

#endif // DPHLS_SYSTOLIC_ISA_TIER_HH
