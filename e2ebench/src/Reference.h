//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed reference kernel that gauges how fast the host runs right now.
///
/// Shared hosts drift: the same round of this benchmark took 1.5 s or 2.3 s
/// depending on what else the machine was doing, with no steal time and
/// thread CPU time equal to wall time, so nothing the process can read
/// tells the two apart. The kernel below slows down with the host (a
/// correlation of 0.83 with an f10_fattree round over 100 rounds), and it
/// uses none of the code under src/, so no change to the program moves it.
/// Timings are scaled by NominalS / (kernel time measured next to them):
/// seconds as the round would have taken at the host's nominal speed.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_REFERENCE_H
#define E2EBENCH_REFERENCE_H

namespace e2ebench {

/// Median kernel time on a 4-vCPU x86-64 virtual machine. Only the ratio
/// matters; the constant fixes the scale of the metrics.
constexpr double ReferenceNominalS = 0.2;

/// Runs the kernel once and returns its wall time in seconds: hash-map
/// churn, ordered-map inserts, a sort, and schoolbook multiprecision
/// multiplication (the mix of an FDD compile's hash-consing, tree and
/// rational-arithmetic work).
double referenceKernelSeconds();

} // namespace e2ebench

#endif // E2EBENCH_REFERENCE_H
