#ifndef FAST_TESTS_TRACE_CHECKS_H_
#define FAST_TESTS_TRACE_CHECKS_H_

// Load-independent checks on a request's wall spans (obs/trace.h), shared by
// the tracing and wire tests: span order and bounds instead of a coverage
// ratio, which would depend on how long the host kept a request waiting.

#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"

namespace fast::testing {

inline std::vector<obs::TraceSpan> WallSpans(const obs::CompletedTrace& trace) {
  std::vector<obs::TraceSpan> wall;
  for (const obs::TraceSpan& s : trace.spans) {
    if (!s.simulated) wall.push_back(s);
  }
  return wall;
}

// Wall spans must tile the timeline in order: starts non-decreasing, each
// span starting no earlier than the previous one ended (modulo float noise).
inline void ExpectWallSpansOrdered(const obs::CompletedTrace& trace) {
  const std::vector<obs::TraceSpan> wall = WallSpans(trace);
  ASSERT_FALSE(wall.empty());
  for (std::size_t i = 0; i < wall.size(); ++i) {
    EXPECT_GE(wall[i].start_seconds, 0.0) << obs::SpanName(wall[i].span);
    EXPECT_GE(wall[i].duration_seconds, 0.0) << obs::SpanName(wall[i].span);
    if (i > 0) {
      const double prev_end =
          wall[i - 1].start_seconds + wall[i - 1].duration_seconds;
      EXPECT_GE(wall[i].start_seconds, prev_end - 1e-9)
          << obs::SpanName(wall[i - 1].span) << " overlaps "
          << obs::SpanName(wall[i].span);
    }
  }
}

// The wall spans of a served request, load-independently: `required` appear
// in this order, no two wall spans overlap, and the last one ends no later
// than the request's end-to-end latency. (A coverage ratio would depend on
// how long the host kept the request waiting between spans.)
inline void ExpectWallSpans(const obs::CompletedTrace& trace,
                            std::vector<obs::Span> required) {
  ExpectWallSpansOrdered(trace);
  const std::vector<obs::TraceSpan> wall = WallSpans(trace);
  ASSERT_FALSE(wall.empty());
  std::size_t next = 0;
  for (const obs::TraceSpan& s : wall) {
    if (next < required.size() && s.span == required[next]) ++next;
  }
  EXPECT_EQ(next, required.size())
      << "missing or out of order: "
      << (next < required.size() ? obs::SpanName(required[next]) : "") << " in "
      << trace.Summary();
  const obs::TraceSpan& last = wall.back();
  EXPECT_LE(last.start_seconds + last.duration_seconds, trace.total_seconds + 1e-9)
      << trace.Summary();
  EXPECT_LE(trace.WallSpanSeconds(), trace.total_seconds + 1e-9);
}

}  // namespace fast::testing

#endif  // FAST_TESTS_TRACE_CHECKS_H_
