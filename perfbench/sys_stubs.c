/* Monotonic nanosecond clock for the traced run's sampled call timers.
   The native entry point is [@@noalloc] with an untagged int result, so a
   timed call allocates nothing on the OCaml heap.  Also the process's
   peak resident set, which the runtime's own top_heap_words does not
   track once several domains have run. */
#include <time.h>
#include <sys/resource.h>
#include <caml/mlvalues.h>

intnat perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_now_ns_byte(value unit)
{
  return Val_long(perfbench_now_ns(unit));
}

value perfbench_peak_rss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return Val_long(-1);
  return Val_long(ru.ru_maxrss);
}
