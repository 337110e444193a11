/**
 * @file
 * A fixed reference kernel that measures how fast the host runs at
 * the moment, independent of any Gables code.
 *
 * On a shared host the same work can take 1.2-1.9x longer while
 * neighbours compete for the cores, in bursts of a second or two and
 * in phases of minutes. The timed phase runs this kernel before and
 * after every round and set-up, and inside a round every 30 ms or
 * so. Each op and set-up is scaled by how much slower than nominal
 * the kernel ran just before and just after it, so the reported
 * times are those of a host running at reference speed. A change to
 * Gables moves the rounds but not the kernel, so it shows in full.
 */

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

namespace perfbench {

/** Seconds one run of the reference kernel takes at reference speed:
 * about what it takes on a 4-vCPU KVM guest on an Intel Xeon
 * (Sapphire Rapids) in an ordinary minute. Reported times are scaled
 * to it. */
constexpr double kReferenceKernelSeconds = 0.005;

/** Inside a round, the kernel runs again after the first op that
 * ends this long after its last run. */
constexpr double kKernelEverySeconds = 0.03;

/**
 * Run the reference kernel: shortest-form number formatting hashed
 * into a buffer, then ordered-map inserts, lookups and erases. Both
 * are branchy, cache-resident integer work like the workloads'
 * serialization, parsing and bookkeeping. Of the candidates tried
 * (also a 4 MiB pointer chase, a divide chain, a streaming pass and
 * vector divides), these two tracked every workload's round times
 * best through the host's slow spells; see perfbench/NOTES.md.
 *
 * @return Seconds the kernel took.
 */
double runReferenceKernel();

/**
 * @p seconds scaled to the reference host's speed, given runs of the
 * kernel just before and just after them.
 */
double atReferenceSpeed(double seconds, double kernel_before,
                        double kernel_after);

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H
