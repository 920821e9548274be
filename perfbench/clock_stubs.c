/* The benchmark's clock: CLOCK_MONOTONIC in nanoseconds.  The
   library's Fw_obs.Clock reads gettimeofday, whose microsecond steps
   are 1% of a set-up on keyed_durable. */

#include <time.h>
#include <caml/mlvalues.h>

value perfbench_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
