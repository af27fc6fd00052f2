#include "serve/malloc_policy.h"

#include <iostream>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace defa::serve {

bool configure_malloc() {
#ifdef __GLIBC__
  // One arena.  glibc gives each thread that contends on malloc its own
  // arena and keeps freed chunks there, so every pool worker that runs
  // requests holds on to its own set of multi-MB request tensors.  On
  // perfbench's threshold_sweep (4-core x86-64 host, 25 s, seeds 1-2) a
  // pool of four request-running workers peaked at 114.7 / 115.5 MB
  // against 98.8 / 99.0 MB with three; with one arena both pool sizes
  // peak at 69.0 - 69.2 MB.
  //
  // Fixed thresholds.  By default glibc raises the mmap threshold to the
  // largest chunk freed so far (~4.6 MB, one 4484 x 256 float tensor) and
  // the trim threshold to twice that.  A threshold_sweep request frees
  // ~30 MB at the heap top, glibc trims it, and the next request faults
  // it back in: 7,751 minor faults per encoder run.  Setting either
  // threshold alone switches that dynamic rule off and makes it worse
  // (14,030 faults per request with only the trim threshold, 10,556 with
  // only the mmap threshold); both together take it to 0.
  struct Setting {
    int param;
    int value;
    const char* name;
  };
  static constexpr Setting kSettings[] = {
      {M_ARENA_MAX, 1, "M_ARENA_MAX"},
      {M_MMAP_THRESHOLD, 32 << 20, "M_MMAP_THRESHOLD"},
      {M_TRIM_THRESHOLD, 128 << 20, "M_TRIM_THRESHOLD"},
  };
  bool ok = true;
  for (const Setting& s : kSettings) {
    if (mallopt(s.param, s.value) == 0) {
      std::cerr << "malloc policy: glibc rejected mallopt(" << s.name << ", " << s.value << ")\n";
      ok = false;
    }
  }
  return ok;
#else
  return true;
#endif
}

}  // namespace defa::serve
