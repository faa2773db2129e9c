//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the figure-reproduction harnesses: environment
/// knobs, wall-clock timing with per-point budgets, medians, table
/// printing, and the run description every BENCH_*.json records.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_BENCH_BENCHUTIL_H
#define MCNK_BENCH_BENCHUTIL_H

#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#ifndef MCNK_BUILD_TYPE
#define MCNK_BUILD_TYPE "unknown"
#endif

namespace mcnk {
namespace bench {

/// Reads an unsigned environment knob with a default.
inline unsigned envUnsigned(const char *Name, unsigned Default) {
  const char *Value = std::getenv(Name);
  if (!Value || !*Value)
    return Default;
  return static_cast<unsigned>(std::strtoul(Value, nullptr, 10));
}

/// Reads a floating-point environment knob with a default.
inline double envDouble(const char *Name, double Default) {
  const char *Value = std::getenv(Name);
  if (!Value || !*Value)
    return Default;
  return std::strtod(Value, nullptr);
}

/// A benchmark series that stops reporting once a point exceeds its time
/// budget (the per-tool cutoff used in Figs 7 and 10).
class BudgetedSeries {
public:
  explicit BudgetedSeries(double BudgetSeconds)
      : Budget(BudgetSeconds) {}

  bool alive() const { return Alive; }

  /// Retires the series unconditionally (e.g. a tool-internal budget was
  /// exhausted mid-measurement, so the next point would never finish).
  void kill() { Alive = false; }

  /// Runs \p Body if the series is still alive; returns the measured
  /// seconds (negative when the series is dead). Kills the series when
  /// the measurement goes over budget.
  template <typename Fn> double measure(Fn &&Body) {
    if (!Alive)
      return -1.0;
    WallTimer Timer;
    Body();
    double Elapsed = Timer.elapsed();
    if (Elapsed > Budget)
      Alive = false;
    return Elapsed;
  }

private:
  double Budget;
  bool Alive = true;
};

/// The median of \p Samples (the mean of the middle two for an even
/// count); 0 when empty.
inline double median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  std::size_t Mid = Samples.size() / 2;
  return Samples.size() % 2 ? Samples[Mid]
                            : (Samples[Mid - 1] + Samples[Mid]) / 2;
}

/// Writes the JSON members every BENCH_*.json records, one per line and
/// each followed by a comma: the build type, how many repetitions stand
/// behind each reported number, and the host's hardware concurrency.
inline void writeRunInfo(std::FILE *Out, unsigned Repetitions) {
  std::fprintf(Out,
               "  \"build_type\": \"%s\",\n"
               "  \"repetitions\": %u,\n"
               "  \"host_hardware_concurrency\": %u,\n",
               MCNK_BUILD_TYPE, Repetitions,
               std::thread::hardware_concurrency());
}

/// Prints a seconds cell, or "-" for a dead series.
inline void printCell(double Seconds) {
  if (Seconds < 0)
    std::printf("  %10s", "-");
  else
    std::printf("  %10.3f", Seconds);
}

} // namespace bench
} // namespace mcnk

#endif // MCNK_BENCH_BENCHUTIL_H
