#pragma once

/// \file malloc_policy.h
/// The serving process's allocator policy.  `defa_serve` applies it once,
/// first thing in `main`, so request tensors come from one heap that stays
/// mapped between requests (docs/SERVING.md, "Running a server").

namespace defa::serve {

/// Caps glibc at one malloc arena and fixes its mmap threshold at 32 MiB
/// (glibc's maximum on 64-bit hosts) and its trim threshold at 128 MiB.
/// Reports each setting glibc rejects on stderr and returns false if any
/// was rejected.  A no-op returning true off glibc.
bool configure_malloc();

}  // namespace defa::serve
