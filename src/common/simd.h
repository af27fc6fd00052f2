#pragma once

/// \file simd.h
/// Runtime SIMD-ISA detection and dispatch policy — the portable shim the
/// vectorized kernels stand on: the `simd` kernels backend
/// (src/kernels/simd_backend.cpp) and the AVX2 tier of `nn::matmul`
/// (src/nn/linear.cpp), which uses only the CPU probe below.
///
/// The repo ships three instruction-set tiers for the `simd` backend:
/// AVX2 (x86-64), NEON (aarch64) and a portable scalar fallback; and two
/// for `nn::matmul`: AVX2 and its serial loop.  Which tier *runs* is a
/// pure runtime decision made here, in three layers:
///
///  1. **CPU capability** — `cpu_supports(isa)` queries the hardware
///     (CPUID on x86, architecture baseline on ARM).  Detection is about
///     the machine the binary landed on, never the machine it was built on,
///     so one binary runs correctly on hosts with different CPUs.
///  2. **Compiled availability** — whether a tier's kernels were compiled
///     into the binary at all is a per-translation-unit property of the
///     kernels and nn layers (the `DEFA_KERNELS_SIMD` CMake knob); the
///     shim only expresses the *request* and the hardware truth.
///  3. **Operator override** — the `DEFA_SIMD` environment variable pins a
///     tier for A/B measurement and differential testing: `auto` (default)
///     picks the best runnable tier, `scalar` forces the portable fallback,
///     `avx2`/`neon` *require* that tier — making the backend report itself
///     unavailable (rather than silently degrade) when the host or build
///     cannot honor the request.  `nn::matmul` does not read it: its
///     tiers are bit-identical, so it takes AVX2 whenever it can.
///
/// Everything here is cheap, allocation-free after first use, and safe to
/// call per kernel invocation.

#include <string>

namespace defa::simd {

/// SIMD instruction-set tiers, weakest first.  The ordering is meaningful:
/// `best_cpu_isa()` returns the highest-valued tier the CPU supports.
enum class Isa {
  kScalar = 0,  ///< portable fallback, available everywhere
  kNeon = 1,    ///< 128-bit ARM Advanced SIMD
  kAvx2 = 2,    ///< 256-bit x86 AVX2
};

/// Lower-case display/parse name of a tier ("scalar", "neon", "avx2").
[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// Does the *hardware this process runs on* support the tier?  kScalar is
/// always true; kAvx2 uses CPUID via __builtin_cpu_supports on x86 and is
/// false elsewhere; kNeon is true on aarch64 (Advanced SIMD is baseline).
[[nodiscard]] bool cpu_supports(Isa isa) noexcept;

/// Highest tier `cpu_supports` reports true for.
[[nodiscard]] Isa best_cpu_isa() noexcept;

/// Parsed DEFA_SIMD override.
struct IsaRequest {
  bool forced = false;  ///< a specific tier (or scalar) was requested
  Isa isa = Isa::kScalar;
  bool valid = true;    ///< false: unrecognized DEFA_SIMD value
  std::string raw;      ///< the raw environment string (for error messages)
};

/// Read DEFA_SIMD from the environment (re-read every call, like
/// DEFA_BACKEND, so tests can flip it).  Unset/empty/"auto" => not forced.
[[nodiscard]] IsaRequest requested_isa();

}  // namespace defa::simd
