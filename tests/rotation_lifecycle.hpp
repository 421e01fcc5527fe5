#pragma once
/// The rotation-lifecycle check over the run-time manager's obs::Event
/// stream, shared by every suite that drives rotations.
///
/// Each booking is named by (container, transfer start). The stream carries
/// its RotationStarted, then:
///  * RotationFinished right behind it when the transfer is clean, or
///    RotationFailed once a faulty transfer's window has ended;
///  * RotationCancelled (prev_cycles == start) when a queued booking was
///    dropped. A cancelled clean booking keeps the RotationFinished emitted
///    at issue time; a cancelled faulty booking never reports its failure,
///    so the cancellation is its only closing event.
///
/// Callers drain the manager first when faults are on, so every faulty
/// transfer's failure has been discovered.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>

#include "rispp/obs/event.hpp"
#include "rispp/rt/manager.hpp"

namespace rotation_lifecycle {

/// Asserts, over everything `recorder` saw from `mgr`:
///  1. every RotationStarted closes by exactly one RotationFinished or
///     RotationFailed — or, for a cancelled faulty booking, by its
///     RotationCancelled alone;
///  2. every RotationCancelled names an earlier booking by (container,
///     prev_cycles == start) that neither failed nor was cancelled before;
///     with a clean transfer that booking has finished;
///  3. finished − cancelled-finished + failed == rotations_performed(): in
///     a fault-free run, finished − cancelled. The cancellation count
///     matches rotations_cancelled() too.
inline void expect_closed(rispp::rt::RisppManager& mgr,
                          const rispp::obs::TraceRecorder& recorder) {
  using rispp::obs::EventKind;
  mgr.flush_events();
  struct Booking {
    bool finished = false, failed = false, cancelled = false;
  };
  std::map<std::pair<std::int32_t, std::uint64_t>, Booking> bookings;
  std::uint64_t finished = 0, failed = 0, cancelled = 0,
                cancelled_finished = 0;
  const auto find = [&](std::int32_t container, std::uint64_t start) {
    const auto it = bookings.find({container, start});
    EXPECT_NE(it, bookings.end())
        << "no earlier RotationStarted on AC " << container << " at "
        << start;
    return it;
  };
  for (const auto& e : recorder.events()) {
    switch (e.kind) {
      case EventKind::RotationStarted:
        EXPECT_TRUE(bookings.try_emplace({e.container, e.at}).second)
            << "two bookings on AC " << e.container << " start at " << e.at;
        break;
      case EventKind::RotationFinished:
      case EventKind::RotationFailed: {
        const bool fin = e.kind == EventKind::RotationFinished;
        const auto it =
            find(e.container, fin ? e.at - e.cycles : e.prev_cycles);
        if (it == bookings.end()) break;
        auto& b = it->second;
        EXPECT_FALSE(b.finished || b.failed)
            << "booking on AC " << e.container << " closed twice";
        EXPECT_FALSE(b.cancelled) << "a cancelled booking closed later";
        (fin ? b.finished : b.failed) = true;
        ++(fin ? finished : failed);
        break;
      }
      case EventKind::RotationCancelled: {
        ++cancelled;
        const auto it = find(e.container, e.prev_cycles);
        if (it == bookings.end()) break;
        auto& b = it->second;
        EXPECT_FALSE(b.cancelled || b.failed)
            << "cancelled a booking that already ended on AC "
            << e.container;
        b.cancelled = true;
        if (b.finished) ++cancelled_finished;
        break;
      }
      default: break;
    }
  }
  for (const auto& [key, b] : bookings)
    EXPECT_TRUE(b.finished || b.failed || b.cancelled)
        << "the rotation on AC " << key.first << " starting at "
        << key.second << " never closed";
  EXPECT_EQ(cancelled, mgr.rotations_cancelled());
  EXPECT_EQ(finished - cancelled_finished + failed, mgr.rotations_performed());
}

}  // namespace rotation_lifecycle
