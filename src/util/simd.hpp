#pragma once
//
// Explicit SIMD layer: fixed-width vector types + one-time runtime dispatch.
//
// Two halves, one header:
//
//   1. A thin fixed-width vector abstraction over doubles (scalar / SSE2 /
//      AVX2 / AVX-512, NEON on aarch64) with load/store, masked load/store,
//      broadcast, the arithmetic the solver kernels need, fused
//      multiply-add and a small-magnitude flush. The types only exist in
//      translation units compiled with the matching -m flags (the per-ISA
//      kernel TUs under src/util/simd_kernels_*.cpp); everything else uses
//      only the Isa enum and the dispatch API below.
//
//   2. Runtime dispatch: at first use the library probes the CPU once,
//      picks the widest ISA that is BOTH compiled in and supported, and
//      routes every kernel call through a function-pointer table
//      (util/simd_kernels.hpp). CMESOLVE_SIMD=scalar|sse2|avx2|avx512|auto
//      forces a narrower path for testing, force_isa() does the same
//      programmatically, and the run report records the selection under
//      the fixed provenance key "simd".
//
// Bitwise-determinism contract (see DESIGN.md §16): every kernel
// vectorizes across independent accumulators — rows of the stencil sweep,
// lanes of the interleaved batch — and NEVER inside a row's reduction, so
// each element's value is the same chain of IEEE operations at every
// width. The kernels spell multiplies and adds out separately and their
// TUs compile with -ffp-contract=off, so no path fuses a*b+c into an FMA
// behind the scalar reference's back. fmadd() below is provided for
// throughput experiments but is NOT used on any parity-critical path.
//
#include <bit>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#if defined(__SSE2__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace cmesolve::util::simd {

// ---------------------------------------------------------------------------
// Dispatch API (implemented in simd.cpp; usable from any TU).
// ---------------------------------------------------------------------------

/// Instruction sets the kernel layer can be built for, narrowest first.
/// The numeric order is the preference order of auto-dispatch.
enum class Isa : std::uint8_t {
  kScalar = 0,
  kNeon = 1,    ///< aarch64 baseline, 2 doubles
  kSse2 = 2,    ///< x86-64 baseline, 2 doubles
  kAvx2 = 3,    ///< 4 doubles (+FMA for the fmadd() helper)
  kAvx512 = 4,  ///< 8 doubles
};

[[nodiscard]] const char* to_string(Isa isa) noexcept;
/// Doubles per vector register of the ISA.
[[nodiscard]] int isa_width(Isa isa) noexcept;
/// Parses the CMESOLVE_SIMD spelling ("scalar", "sse2", "avx2", "avx512",
/// "neon"). Returns false on anything else ("auto" included — the caller
/// treats non-parses as auto).
[[nodiscard]] bool parse_isa(std::string_view text, Isa& out) noexcept;

/// ISAs that are compiled into this binary AND supported by the running
/// CPU, ascending (kScalar is always present).
[[nodiscard]] const std::vector<Isa>& compiled_isas();

/// Widest entry of compiled_isas() — what auto-dispatch selects.
[[nodiscard]] Isa detected_isa();

/// The ISA the kernel table currently routes to. Resolution order, decided
/// once and cached: force_isa() override > CMESOLVE_SIMD environment
/// variable > detected_isa(). An environment request for an ISA that is
/// not available clamps to the widest available ISA not exceeding it.
[[nodiscard]] Isa active_isa();
/// to_string(active_isa()) — the value the run-report provenance records.
[[nodiscard]] const char* active_isa_name();

/// Force the dispatch to `isa` for testing. Returns false (and changes
/// nothing) when the ISA is not in compiled_isas().
bool force_isa(Isa isa);
/// Drop any force_isa() override AND the cached environment resolution:
/// the next active_isa() call re-reads CMESOLVE_SIMD and re-probes.
void reset_forced_isa();

// ---------------------------------------------------------------------------
// Fixed-width vector types. Each is only defined where its ISA macro is —
// i.e. inside a kernel TU compiled with the matching -m flags.
// ---------------------------------------------------------------------------

/// Width-1 reference lane. The scalar kernels compile from exactly this,
/// so "vector path == scalar path" is one elementwise op at every width.
struct VecScalar {
  static constexpr int kWidth = 1;
  double v;

  static VecScalar load(const double* p) noexcept { return {*p}; }
  static VecScalar broadcast(double a) noexcept { return {a}; }
  static VecScalar zero() noexcept { return {0.0}; }
  void store(double* p) const noexcept { *p = v; }
  /// Masked lanes read as 0 / keep the destination. Masks are all-ones /
  /// all-zero bit patterns per lane (see lane masks in the kernels).
  static VecScalar masked_load(const double* p, VecScalar m) noexcept {
    return select(m, load(p), zero());
  }
  void masked_store(double* p, VecScalar m) const noexcept {
    select(m, *this, load(p)).store(p);
  }
  friend VecScalar operator+(VecScalar a, VecScalar b) noexcept {
    return {a.v + b.v};
  }
  friend VecScalar operator-(VecScalar a, VecScalar b) noexcept {
    return {a.v - b.v};
  }
  friend VecScalar operator*(VecScalar a, VecScalar b) noexcept {
    return {a.v * b.v};
  }
  friend VecScalar operator/(VecScalar a, VecScalar b) noexcept {
    return {a.v / b.v};
  }
  /// Exact sign flip (matches unary minus: -(+0) == -0).
  [[nodiscard]] VecScalar neg() const noexcept { return {-v}; }
  /// Single-rounded a*b+c. NOT used on parity-critical paths.
  static VecScalar fmadd(VecScalar a, VecScalar b, VecScalar c) noexcept {
    return {std::fma(a.v, b.v, c.v)};
  }
  /// Per-lane bit select: m ? a : b with all-ones/all-zero lane masks.
  static VecScalar select(VecScalar m, VecScalar a, VecScalar b) noexcept {
    const auto mm = std::bit_cast<std::uint64_t>(m.v);
    return {std::bit_cast<double>((std::bit_cast<std::uint64_t>(a.v) & mm) |
                                  (std::bit_cast<std::uint64_t>(b.v) & ~mm))};
  }
  /// True when any lane compares != 0.0 (unordered: NaN lanes count as
  /// nonzero) — block-skip tests over sparse streams.
  [[nodiscard]] bool any_nonzero() const noexcept { return !(v == 0.0); }
  /// Lanes whose magnitude is below t's become +0.0; the rest, NaN
  /// included (the compare is ordered), keep their bits. The Jacobi update
  /// kernels use it to keep the iterate out of the subnormal range.
  [[nodiscard]] VecScalar flush_below(VecScalar t) const noexcept {
    return {std::fabs(v) < t.v ? 0.0 : v};
  }
};

#if defined(__SSE2__)
/// 2 doubles (x86-64 baseline).
struct VecSse2 {
  static constexpr int kWidth = 2;
  __m128d v;

  static VecSse2 load(const double* p) noexcept { return {_mm_loadu_pd(p)}; }
  static VecSse2 broadcast(double a) noexcept { return {_mm_set1_pd(a)}; }
  static VecSse2 zero() noexcept { return {_mm_setzero_pd()}; }
  void store(double* p) const noexcept { _mm_storeu_pd(p, v); }
  static VecSse2 masked_load(const double* p, VecSse2 m) noexcept {
    return select(m, load(p), zero());
  }
  void masked_store(double* p, VecSse2 m) const noexcept {
    select(m, *this, load(p)).store(p);
  }
  friend VecSse2 operator+(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_add_pd(a.v, b.v)};
  }
  friend VecSse2 operator-(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_sub_pd(a.v, b.v)};
  }
  friend VecSse2 operator*(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_mul_pd(a.v, b.v)};
  }
  friend VecSse2 operator/(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_div_pd(a.v, b.v)};
  }
  [[nodiscard]] VecSse2 neg() const noexcept {
    return {_mm_xor_pd(v, _mm_set1_pd(-0.0))};
  }
  static VecSse2 fmadd(VecSse2 a, VecSse2 b, VecSse2 c) noexcept {
#if defined(__FMA__)
    return {_mm_fmadd_pd(a.v, b.v, c.v)};
#else
    return {_mm_set_pd(std::fma(_mm_cvtsd_f64(_mm_unpackhi_pd(a.v, a.v)),
                                _mm_cvtsd_f64(_mm_unpackhi_pd(b.v, b.v)),
                                _mm_cvtsd_f64(_mm_unpackhi_pd(c.v, c.v))),
                       std::fma(_mm_cvtsd_f64(a.v), _mm_cvtsd_f64(b.v),
                                _mm_cvtsd_f64(c.v)))};
#endif
  }
  static VecSse2 select(VecSse2 m, VecSse2 a, VecSse2 b) noexcept {
    return {_mm_or_pd(_mm_and_pd(m.v, a.v), _mm_andnot_pd(m.v, b.v))};
  }
  [[nodiscard]] bool any_nonzero() const noexcept {
    // NEQ is an unordered comparison: NaN lanes report nonzero.
    return _mm_movemask_pd(_mm_cmpneq_pd(v, _mm_setzero_pd())) != 0;
  }
  [[nodiscard]] VecSse2 flush_below(VecSse2 t) const noexcept {
    const __m128d mag = _mm_andnot_pd(_mm_set1_pd(-0.0), v);
    return {_mm_andnot_pd(_mm_cmplt_pd(mag, t.v), v)};
  }
};
#endif  // __SSE2__

#if defined(__AVX2__)
/// 4 doubles. Compiled with -mavx2 -mfma in its kernel TU.
struct VecAvx2 {
  static constexpr int kWidth = 4;
  __m256d v;

  static VecAvx2 load(const double* p) noexcept { return {_mm256_loadu_pd(p)}; }
  static VecAvx2 broadcast(double a) noexcept { return {_mm256_set1_pd(a)}; }
  static VecAvx2 zero() noexcept { return {_mm256_setzero_pd()}; }
  void store(double* p) const noexcept { _mm256_storeu_pd(p, v); }
  /// Native masked forms: lanes with the mask's top bit clear are not
  /// touched (load reads 0, store leaves memory alone).
  static VecAvx2 masked_load(const double* p, VecAvx2 m) noexcept {
    return {_mm256_maskload_pd(p, _mm256_castpd_si256(m.v))};
  }
  void masked_store(double* p, VecAvx2 m) const noexcept {
    _mm256_maskstore_pd(p, _mm256_castpd_si256(m.v), v);
  }
  friend VecAvx2 operator+(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend VecAvx2 operator-(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend VecAvx2 operator*(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  friend VecAvx2 operator/(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_div_pd(a.v, b.v)};
  }
  [[nodiscard]] VecAvx2 neg() const noexcept {
    return {_mm256_xor_pd(v, _mm256_set1_pd(-0.0))};
  }
  static VecAvx2 fmadd(VecAvx2 a, VecAvx2 b, VecAvx2 c) noexcept {
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
  }
  static VecAvx2 select(VecAvx2 m, VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_blendv_pd(b.v, a.v, m.v)};
  }
  [[nodiscard]] bool any_nonzero() const noexcept {
    return _mm256_movemask_pd(
               _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_NEQ_UQ)) != 0;
  }
  [[nodiscard]] VecAvx2 flush_below(VecAvx2 t) const noexcept {
    const __m256d mag = _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
    return {_mm256_andnot_pd(_mm256_cmp_pd(mag, t.v, _CMP_LT_OQ), v)};
  }
};
#endif  // __AVX2__

#if defined(__AVX512F__)
/// 8 doubles. Compiled with -mavx512f in its kernel TU; the lane-mask
/// bridge derives a __mmask8 from the all-ones/all-zero double mask so the
/// native masked instructions apply.
struct VecAvx512 {
  static constexpr int kWidth = 8;
  __m512d v;

  static VecAvx512 load(const double* p) noexcept {
    return {_mm512_loadu_pd(p)};
  }
  static VecAvx512 broadcast(double a) noexcept { return {_mm512_set1_pd(a)}; }
  static VecAvx512 zero() noexcept { return {_mm512_setzero_pd()}; }
  void store(double* p) const noexcept { _mm512_storeu_pd(p, v); }
  static __mmask8 to_mask(VecAvx512 m) noexcept {
    return _mm512_cmpneq_epi64_mask(_mm512_castpd_si512(m.v),
                                    _mm512_setzero_si512());
  }
  static VecAvx512 masked_load(const double* p, VecAvx512 m) noexcept {
    return {_mm512_maskz_loadu_pd(to_mask(m), p)};
  }
  void masked_store(double* p, VecAvx512 m) const noexcept {
    _mm512_mask_storeu_pd(p, to_mask(m), v);
  }
  friend VecAvx512 operator+(VecAvx512 a, VecAvx512 b) noexcept {
    return {_mm512_add_pd(a.v, b.v)};
  }
  friend VecAvx512 operator-(VecAvx512 a, VecAvx512 b) noexcept {
    return {_mm512_sub_pd(a.v, b.v)};
  }
  friend VecAvx512 operator*(VecAvx512 a, VecAvx512 b) noexcept {
    return {_mm512_mul_pd(a.v, b.v)};
  }
  friend VecAvx512 operator/(VecAvx512 a, VecAvx512 b) noexcept {
    return {_mm512_div_pd(a.v, b.v)};
  }
  [[nodiscard]] VecAvx512 neg() const noexcept {
    return {_mm512_castsi512_pd(_mm512_xor_si512(
        _mm512_castpd_si512(v),
        _mm512_castpd_si512(_mm512_set1_pd(-0.0))))};
  }
  static VecAvx512 fmadd(VecAvx512 a, VecAvx512 b, VecAvx512 c) noexcept {
    return {_mm512_fmadd_pd(a.v, b.v, c.v)};
  }
  static VecAvx512 select(VecAvx512 m, VecAvx512 a, VecAvx512 b) noexcept {
    return {_mm512_mask_blend_pd(to_mask(m), b.v, a.v)};
  }
  [[nodiscard]] bool any_nonzero() const noexcept {
    return _mm512_cmp_pd_mask(v, _mm512_setzero_pd(), _CMP_NEQ_UQ) != 0;
  }
  [[nodiscard]] VecAvx512 flush_below(VecAvx512 t) const noexcept {
    const __mmask8 tiny =
        _mm512_cmp_pd_mask(_mm512_abs_pd(v), t.v, _CMP_LT_OQ);
    return {_mm512_mask_blend_pd(tiny, v, _mm512_setzero_pd())};
  }
};
#endif  // __AVX512F__

#if defined(__ARM_NEON) && defined(__aarch64__)
/// 2 doubles (aarch64 baseline — no runtime probe needed).
struct VecNeon {
  static constexpr int kWidth = 2;
  float64x2_t v;

  static VecNeon load(const double* p) noexcept { return {vld1q_f64(p)}; }
  static VecNeon broadcast(double a) noexcept { return {vdupq_n_f64(a)}; }
  static VecNeon zero() noexcept { return {vdupq_n_f64(0.0)}; }
  void store(double* p) const noexcept { vst1q_f64(p, v); }
  static VecNeon masked_load(const double* p, VecNeon m) noexcept {
    return select(m, load(p), zero());
  }
  void masked_store(double* p, VecNeon m) const noexcept {
    select(m, *this, load(p)).store(p);
  }
  friend VecNeon operator+(VecNeon a, VecNeon b) noexcept {
    return {vaddq_f64(a.v, b.v)};
  }
  friend VecNeon operator-(VecNeon a, VecNeon b) noexcept {
    return {vsubq_f64(a.v, b.v)};
  }
  friend VecNeon operator*(VecNeon a, VecNeon b) noexcept {
    return {vmulq_f64(a.v, b.v)};
  }
  friend VecNeon operator/(VecNeon a, VecNeon b) noexcept {
    return {vdivq_f64(a.v, b.v)};
  }
  [[nodiscard]] VecNeon neg() const noexcept { return {vnegq_f64(v)}; }
  static VecNeon fmadd(VecNeon a, VecNeon b, VecNeon c) noexcept {
    return {vfmaq_f64(c.v, a.v, b.v)};
  }
  static VecNeon select(VecNeon m, VecNeon a, VecNeon b) noexcept {
    return {vbslq_f64(vreinterpretq_u64_f64(m.v), a.v, b.v)};
  }
  [[nodiscard]] bool any_nonzero() const noexcept {
    // vceqq is an ordered equality: NaN lanes compare not-equal-to-zero
    // (mask 0), so they count as nonzero, matching the x86 NEQ_UQ forms.
    const uint64x2_t eq = vceqq_f64(v, vdupq_n_f64(0.0));
    return (vgetq_lane_u64(eq, 0) & vgetq_lane_u64(eq, 1)) !=
           ~std::uint64_t{0};
  }
  [[nodiscard]] VecNeon flush_below(VecNeon t) const noexcept {
    // vcltq is an ordered compare: NaN lanes test false and keep their bits.
    const uint64x2_t tiny = vcltq_f64(vabsq_f64(v), t.v);
    return {vreinterpretq_f64_u64(
        vbicq_u64(vreinterpretq_u64_f64(v), tiny))};
  }
};
#endif  // __ARM_NEON && __aarch64__

}  // namespace cmesolve::util::simd
