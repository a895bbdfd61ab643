/**
 * @file
 * Cheap host-side phase timing for the simulation kernel.
 *
 * The per-cycle phase buckets (node step, net step, commit)
 * are stamped twice per phase per simulated cycle, so the probe has to
 * cost nanoseconds, not a syscall: on x86 we read the TSC directly and
 * calibrate it against the steady clock once per process; on aarch64
 * we read the generic-timer virtual counter, whose frequency the
 * architecture publishes in cntfrq_el0 (both are userspace-readable).
 * Everything else falls back to std::chrono::steady_clock. The
 * absolute error of the TSC calibration (~0.1%) is irrelevant — the
 * buckets are only ever compared against each other and wall time.
 */

#ifndef JMSIM_SIM_HOST_TIMER_HH
#define JMSIM_SIM_HOST_TIMER_HH

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace jmsim
{

/** Monotonic host tick counter (TSC where available). */
inline std::uint64_t
hostTicks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#elif defined(__aarch64__)
    std::uint64_t v;
    asm volatile("mrs %0, cntvct_el0" : "=r"(v));
    return v;
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/** Ticks per second, calibrated once against the steady clock. */
inline double
hostTicksPerSecond()
{
#if defined(__x86_64__) || defined(__i386__)
    static const double rate = [] {
        using clock = std::chrono::steady_clock;
        const auto w0 = clock::now();
        const std::uint64_t t0 = hostTicks();
        while (clock::now() - w0 < std::chrono::milliseconds(5)) {
        }
        const std::uint64_t t1 = hostTicks();
        const double dt = std::chrono::duration<double>(clock::now() - w0)
                              .count();
        return static_cast<double>(t1 - t0) / dt;
    }();
    return rate;
#elif defined(__aarch64__)
    static const double rate = [] {
        std::uint64_t hz;
        asm volatile("mrs %0, cntfrq_el0" : "=r"(hz));
        return static_cast<double>(hz);
    }();
    return rate;
#else
    using period = std::chrono::steady_clock::period;
    return static_cast<double>(period::den) / period::num;
#endif
}

/** Convert a tick delta to seconds. */
inline double
hostSeconds(std::uint64_t ticks)
{
    return static_cast<double>(ticks) / hostTicksPerSecond();
}

} // namespace jmsim

#endif // JMSIM_SIM_HOST_TIMER_HH
