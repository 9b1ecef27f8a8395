// join.hpp — the direct-handoff join protocol (docs/join_path.md).
//
// Replaces the poll-the-state joins the paper criticizes: a joiner
// registers itself in the unit's atomic joiner slot and suspends (ULT) or
// parks (OS thread); the terminating stream exchanges the slot and issues
// exactly ONE wakeup. Before suspending, the joiner first tries to *steal*
// the join target: if the unit is still kReady in a removable pool it runs
// the child itself (work-first, the Cilk/MassiveThreads discipline),
// saving the full queue round-trip Figures 3/8 measure.
#pragma once

#include <cstdint>

#include "core/work_unit.hpp"

namespace lwt::core {

class EventCounter;

/// Block until `unit` terminated AND its joiner slot is published. On
/// return the caller may reclaim the unit. At most one joiner per unit; a
/// second concurrent joiner degrades to polling, and with two joiners the
/// unit may only be reclaimed once BOTH have returned (the waiting side
/// must keep reading the unit's state).
void join_unit(WorkUnit* unit);

/// Work-first join stealing: if `unit` is still kReady and its pool can
/// remove() by identity, pull it and run it on the calling stream — inline
/// for tasklets and native callers, via a scheduler hint (yield_to shape)
/// for a ULT joining a ULT. Returns true when the unit was claimed and
/// dispatched (it may have yielded/blocked rather than terminated).
/// Requires XStream::current() != nullptr.
bool try_join_steal(WorkUnit* unit);

/// Register a countdown EventCounter as `unit`'s joiner: the terminator
/// will signal() it. Returns false when the unit already terminated (or
/// the slot is occupied) — the caller must balance the count itself.
bool register_counter_joiner(WorkUnit* unit, EventCounter* counter) noexcept;

/// Terminator side: stamp the signal->resume clock (unit-side before the
/// exchange, and into WAITER-owned memory — the joiner's obs_handoff_tsc
/// or the thread waiter record — for a registered, suspended joiner),
/// publish the joiner slot, and wake whoever was registered. Called by
/// XStream::finish_unit for every non-detached unit; the exchange is the
/// terminator's LAST access to the unit.
void publish_termination(WorkUnit* unit) noexcept;

}  // namespace lwt::core
