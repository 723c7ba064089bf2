/**
 * @file
 * The calibration loop: a fixed piece of the benchmark's own work
 * whose time tracks how fast the host runs this process right now.
 *
 * On a shared host the speed of a core drifts by up to 2x over
 * minutes, so raw times of two runs of the same code disagree by more
 * than any useful regression bound. Each timed section is therefore
 * bracketed by calibration loops, and run.py scales its time by the
 * reference calibration time over the measured one (pb/layers.py,
 * CALIB_REFERENCE_S). The loop has three parts: multiply-add sweeps
 * over L1-resident blocks (about 45% of its time), a branchy dispatch
 * loop with table loads (20%), and a strided read of a buffer larger
 * than the private caches (35%). Over 30 engine runs on a drifting
 * 4-core VM, these weights made the loop's time vary about as much as
 * the engines' (the fitted elasticity was 0.6-1.2 per engine; equal
 * weights gave 0.8-1.5) and cut the quartile spread of their
 * elements/s from 0.08-0.17 to 0.03-0.09; the dispatch loop is there
 * because it tracked the compile server's speed. The loop is never
 * compiled from the AMOS sources, so no change to them can move it.
 */

#include <cstdint>
#include <vector>

#include "harness.hh"

namespace pbench {

namespace {

volatile float gFloatSink;
volatile std::uint64_t gIntSink;

/** Sixteen passes of 48^3 multiply-adds over three 9 KiB blocks. */
void
sweep()
{
    constexpr int kN = 48;
    static float a[kN * kN], b[kN * kN], c[kN * kN];
    for (int i = 0; i < kN * kN; ++i) {
        a[i] = static_cast<float>(i % 7) * 0.25f;
        b[i] = static_cast<float>(i % 5) * 0.5f;
        c[i] = 0.0f;
    }
    for (int pass = 0; pass < 16; ++pass)
        for (int i = 0; i < kN; ++i)
            for (int k = 0; k < kN; ++k) {
                const float x = a[i * kN + k];
                for (int j = 0; j < kN; ++j)
                    c[i * kN + j] += x * b[k * kN + j];
            }
    gFloatSink = c[kN * kN / 2 + 3];
}

/** A little dispatch loop: xorshift state, a switch on its bits and
 *  loads from a 4 KiB table. */
void
dispatch()
{
    static std::uint32_t table[1024];
    for (std::uint32_t i = 0; i < 1024; ++i)
        table[i] = i * 2654435761u;
    std::uint64_t x = 88172645463325252ull, acc = 0;
    for (int i = 0; i < 60000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        switch (x & 7) {
        case 0: acc += table[(x >> 8) & 1023]; break;
        case 1: acc ^= table[(acc >> 3) & 1023]; break;
        case 2: acc = acc * 3 + 1; break;
        case 3: acc -= x >> 20; break;
        case 4: acc += table[acc & 1023] >> 2; break;
        case 5: acc = (acc << 1) | (acc >> 63); break;
        default: acc += i; break;
        }
    }
    gIntSink = acc;
}

/** Every fourth float of an 8 MiB buffer. */
void
stream()
{
    static const std::vector<float> buf(std::size_t(1) << 21, 1.0f);
    float acc = 0.0f;
    for (std::size_t i = 0; i < buf.size(); i += 4)
        acc += buf[i];
    gFloatSink = acc;
}

} // namespace

double
calibrationSeconds()
{
    const auto start = Clock::now();
    sweep();
    dispatch();
    stream();
    return secondsBetween(start, Clock::now());
}

} // namespace pbench
