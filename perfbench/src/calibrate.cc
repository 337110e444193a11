#include "calibrate.h"

#include <charconv>
#include <cstddef>
#include <map>
#include <memory_resource>

#include "harness.h"

namespace perfbench {

namespace {

constexpr size_t kFormatted = 33000;
constexpr size_t kMapOps = 8000;

/** Where the kernel's results go, so none of its work is optimized
 * away. */
volatile uint64_t g_sink = 0;

/** The map's nodes come from here, not from the heap the workloads
 * use, so the kernel leaves their allocation pattern, and so their
 * peak RSS, as it was. Big enough for every insert of one run. */
alignas(std::max_align_t) std::byte g_arena[2 << 20];

} // namespace

double
runReferenceKernel()
{
    Clock::time_point start = Clock::now();

    Digest digest;
    char buf[4096];
    char *const end = buf + sizeof buf;
    char *at = buf;
    double x = 0.5;
    for (size_t i = 0; i < kFormatted; ++i) {
        if (end - at < 64) {
            digest.bytes(buf, static_cast<size_t>(at - buf));
            at = buf;
        }
        x = x * 1.000173 + 0.37;
        at = std::to_chars(at, end - 1, x).ptr;
        *at++ = ',';
        at = std::to_chars(at, end - 1, i).ptr;
        *at++ = ';';
    }
    digest.bytes(buf, static_cast<size_t>(at - buf));

    std::pmr::monotonic_buffer_resource arena(
        g_arena, sizeof g_arena, std::pmr::null_memory_resource());
    std::pmr::unsynchronized_pool_resource pool(&arena);
    std::pmr::map<uint64_t, uint64_t> map(&pool);
    Rng rng(0x7ee);
    uint64_t found = 0;
    for (size_t i = 0; i < kMapOps; ++i) {
        const uint64_t k = rng.next() & 0xffff;
        map[k] += i;
        auto it = map.find(k ^ 0x55);
        if (it != map.end()) {
            found += it->second;
            if (i & 1)
                map.erase(it);
        }
    }

    g_sink = g_sink + digest.value() + found;
    return secondsBetween(start, Clock::now());
}

double
atReferenceSpeed(double seconds, double kernel_before, double kernel_after)
{
    return seconds * 2.0 * kReferenceKernelSeconds /
           (kernel_before + kernel_after);
}

} // namespace perfbench
