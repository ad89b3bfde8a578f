// Heap census: an LD_PRELOAD library that reports, when the process exits,
// which heap blocks were live when the live heap bytes peaked, grouped by
// block size. Build and run it through scripts/heap_census.sh:
//
//   scripts/heap_census.sh ./build/tools/exasim_run heat3d --ranks=4096 ...
//
// It wraps glibc's malloc family (__libc_malloc and friends, so no dlsym
// bootstrap is needed) and counts every block by its usable size
// (malloc_usable_size): exact sizes up to kExactMax bytes, power-of-two
// classes above. The histogram of live blocks is copied whenever the live
// bytes pass the last copied peak by HEAP_CENSUS_STEP bytes (default 64 KiB),
// so the report describes the heap within one step of its true peak. One
// lock serializes the bookkeeping; a multi-threaded program runs slower under
// the census but is counted exactly.
//
// Environment:
//   HEAP_CENSUS_OUT   file the report is appended to (default: stderr)
//   HEAP_CENSUS_TOP   rows printed, largest live bytes first (default 16)
//   HEAP_CENSUS_STEP  snapshot step in bytes (default 65536)

#define _GNU_SOURCE
#include <errno.h>
#include <malloc.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

extern void* __libc_malloc(size_t);
extern void* __libc_calloc(size_t, size_t);
extern void* __libc_realloc(void*, size_t);
extern void* __libc_memalign(size_t, size_t);
extern void __libc_free(void*);

enum { kExactMax = 2048, kLog2Classes = 48, kBins = kExactMax + 1 + kLog2Classes };

typedef struct {
  uint64_t blocks[kBins];
  uint64_t bytes[kBins];
} Histogram;

static pthread_mutex_t g_lock = PTHREAD_MUTEX_INITIALIZER;
static Histogram g_live;
static Histogram g_at_peak;
static uint64_t g_live_bytes;
static uint64_t g_peak_bytes;      // Exact peak of live bytes.
static uint64_t g_snapshot_bytes;  // Live bytes when g_at_peak was copied.
static uint64_t g_step = 65536;
static int g_ready;

static size_t bin_of(size_t usable) {
  if (usable <= kExactMax) return usable;
  size_t log2 = 0;
  while ((((size_t)1) << (log2 + 1)) <= usable) ++log2;  // floor(log2(usable)).
  return kExactMax + 1 + (log2 < kLog2Classes ? log2 : kLog2Classes - 1);
}

static void note(void* p, int sign) {
  if (p == NULL) return;
  const size_t usable = malloc_usable_size(p);
  const size_t bin = bin_of(usable);
  pthread_mutex_lock(&g_lock);
  if (sign > 0) {
    g_live.blocks[bin] += 1;
    g_live.bytes[bin] += usable;
    g_live_bytes += usable;
    if (g_live_bytes > g_peak_bytes) g_peak_bytes = g_live_bytes;
    if (g_live_bytes >= g_snapshot_bytes + g_step) {
      memcpy(&g_at_peak, &g_live, sizeof g_live);
      g_snapshot_bytes = g_live_bytes;
    }
  } else {
    g_live.blocks[bin] -= 1;
    g_live.bytes[bin] -= usable;
    g_live_bytes -= usable;
  }
  pthread_mutex_unlock(&g_lock);
}

void* malloc(size_t n) {
  void* p = __libc_malloc(n);
  note(p, 1);
  return p;
}

void* calloc(size_t n, size_t size) {
  void* p = __libc_calloc(n, size);
  note(p, 1);
  return p;
}

void* realloc(void* old, size_t n) {
  if (old == NULL) return malloc(n);
  if (n == 0) {
    free(old);
    return NULL;
  }
  // Counted as a free and a fresh block; the old block's usable size must be
  // read before glibc may release it.
  note(old, -1);
  void* p = __libc_realloc(old, n);
  note(p != NULL ? p : old, 1);
  return p;
}

void free(void* p) {
  note(p, -1);
  __libc_free(p);
}

void* memalign(size_t align, size_t n) {
  void* p = __libc_memalign(align, n);
  note(p, 1);
  return p;
}

void* aligned_alloc(size_t align, size_t n) { return memalign(align, n); }

int posix_memalign(void** out, size_t align, size_t n) {
  if (align < sizeof(void*) || (align & (align - 1)) != 0) return EINVAL;
  void* p = memalign(align, n);
  if (p == NULL) return ENOMEM;
  *out = p;
  return 0;
}

void* valloc(size_t n) { return memalign((size_t)sysconf(_SC_PAGESIZE), n); }

void* pvalloc(size_t n) {
  const size_t page = (size_t)sysconf(_SC_PAGESIZE);
  return memalign(page, (n + page - 1) / page * page);
}

__attribute__((constructor)) static void census_start(void) {
  const char* step = getenv("HEAP_CENSUS_STEP");
  if (step != NULL && atoll(step) > 0) g_step = (uint64_t)atoll(step);
  g_ready = 1;
}

static const Histogram* g_sort_by;

static int by_bytes_desc(const void* a, const void* b) {
  const uint64_t x = g_sort_by->bytes[*(const size_t*)a];
  const uint64_t y = g_sort_by->bytes[*(const size_t*)b];
  return x < y ? 1 : x > y ? -1 : 0;
}

__attribute__((destructor)) static void census_report(void) {
  if (!g_ready) return;
  // Printing allocates, so the report works on a copy taken under the lock
  // and stops the snapshots first.
  static Histogram at_peak;
  pthread_mutex_lock(&g_lock);
  memcpy(&at_peak, &g_at_peak, sizeof at_peak);
  const uint64_t peak_bytes = g_peak_bytes;
  const uint64_t snapshot_bytes = g_snapshot_bytes;
  g_snapshot_bytes = UINT64_MAX - g_step;
  pthread_mutex_unlock(&g_lock);

  static size_t order[kBins];
  for (size_t i = 0; i < kBins; ++i) order[i] = i;
  g_sort_by = &at_peak;
  qsort(order, kBins, sizeof order[0], by_bytes_desc);
  uint64_t blocks = 0;
  for (size_t i = 0; i < kBins; ++i) blocks += at_peak.blocks[i];
  const char* path = getenv("HEAP_CENSUS_OUT");
  FILE* out = path != NULL ? fopen(path, "a") : NULL;
  if (out == NULL) out = stderr;
  const char* top_env = getenv("HEAP_CENSUS_TOP");
  const int top = top_env != NULL && atoi(top_env) > 0 ? atoi(top_env) : 16;
  fprintf(out,
          "heap census pid %d: peak %.2f MiB live; at the last snapshot (%.2f MiB, within "
          "%llu B of the peak) %llu blocks\n",
          (int)getpid(), (double)peak_bytes / 1048576.0, (double)snapshot_bytes / 1048576.0,
          (unsigned long long)g_step, (unsigned long long)blocks);
  fprintf(out, "%14s %10s %12s %8s\n", "usable bytes", "blocks", "MiB", "share");
  for (int k = 0; k < top && k < kBins; ++k) {
    const size_t bin = order[k];
    if (at_peak.blocks[bin] == 0) break;
    char label[32];
    if (bin <= kExactMax) {
      snprintf(label, sizeof label, "%zu", bin);
    } else {
      snprintf(label, sizeof label, "2^%zu..", bin - kExactMax - 1);
    }
    fprintf(out, "%14s %10llu %12.2f %7.1f%%\n", label, (unsigned long long)at_peak.blocks[bin],
            (double)at_peak.bytes[bin] / 1048576.0,
            snapshot_bytes != 0 ? 100.0 * (double)at_peak.bytes[bin] / (double)snapshot_bytes
                                : 0.0);
  }
  if (out != stderr) fclose(out);
}
