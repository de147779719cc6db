//! One value for everything a thread has recorded, and the four moves
//! the flow makes with it across thread and quarantine boundaries.
//!
//! The registry, the journal and the profile are thread-local stores.
//! A [`Capture`] drains all three at once, so a caller never names a
//! per-channel drain:
//!
//! * [`Capture::take`] drains a worker thread before it exits;
//! * [`Capture::take_in_flight`] puts this thread's state aside while
//!   spans are open (the open chain stays open, with zeroed timings);
//! * [`Capture::absorb`] grafts a worker's capture under this thread's
//!   open span — call it in a fixed worker order;
//! * [`Capture::restore`] reinstates a capture taken on this same
//!   thread verbatim, with no grafting.
//!
//! Counters sum, gauges keep the maximum, histograms add bucket-wise,
//! span trees and profile stacks merge by path, and journal events keep
//! their original thread ids and timestamps.

use crate::journal::{self, Journal};
use crate::profile::{self, Profile};
use crate::registry::{self, Snapshot};

/// Everything one thread recorded over a window: the registry
/// snapshot, the flight-recorder journal and the effort-tick profile.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Capture {
    /// Counters, gauges, histograms and the span tree.
    pub snapshot: Snapshot,
    /// Span boundaries and `event!` marks, oldest first.
    pub journal: Journal,
    /// Effort-tick samples keyed by open-span path and op class.
    pub profile: Profile,
}

impl Capture {
    /// Drains this thread at a quiescent point. Debug builds assert
    /// that no span is open, as [`crate::take_snapshot`] does.
    #[must_use]
    pub fn take() -> Capture {
        Capture {
            snapshot: registry::take_snapshot(),
            journal: journal::take_journal(),
            profile: profile::take_profile(),
        }
    }

    /// Drains this thread while spans may be open. The open span chain
    /// is re-opened in the cleared registry, so live guards keep
    /// recording into a consistent tree; in the capture those spans
    /// show zero completed calls.
    #[must_use]
    pub fn take_in_flight() -> Capture {
        Capture {
            snapshot: registry::take_snapshot_in_flight(),
            journal: journal::take_journal(),
            profile: profile::take_profile(),
        }
    }

    /// Folds a worker's capture into this thread, grafting its span
    /// roots and profile stacks under the innermost open span. Absorb
    /// workers in a fixed order and the result does not depend on which
    /// one finished first.
    pub fn absorb(self) {
        self.fold(true);
    }

    /// Reinstates a capture taken on this thread with
    /// [`Capture::take_in_flight`]: span roots and profile stacks merge
    /// at their recorded (already absolute) paths. `take_in_flight`
    /// followed by `restore` leaves the thread as it was.
    pub fn restore(self) {
        self.fold(false);
    }

    fn fold(self, graft: bool) {
        registry::fold_snapshot(&self.snapshot, graft);
        journal::append_journal(self.journal);
        profile::fold_profile(&self.profile, graft);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records one of everything: a counter, a gauge, a histogram, a
    /// span, a journal mark and (with `enabled`) a profile sample.
    fn record_some(tag: &'static str, value: u64) {
        let _span = crate::span_enter(tag);
        crate::add_counter(tag, value);
        crate::set_gauge("capture.peak", value);
        crate::record_histogram("capture.size", value);
        crate::record_event(tag, vec![("v", value.into())]);
        profile::observe("ite");
    }

    /// Drains the thread after the caller has closed every span.
    fn settle() -> Capture {
        assert_eq!(crate::span_depth(), 0);
        Capture::take()
    }

    /// Wall-clock-free view of a capture: counters, gauges, histogram
    /// counts and span call counts by path (sorted), the journal's
    /// events without timestamps, and the profile as is.
    fn structural(c: &Capture) -> (Vec<(String, u64)>, Vec<String>, Profile) {
        fn spans(prefix: &str, nodes: &[crate::SpanSnap], out: &mut Vec<(String, u64)>) {
            for s in nodes {
                let path = format!("{prefix};{}", s.name);
                out.push((path.clone(), s.calls));
                spans(&path, &s.children, out);
            }
        }
        let snap = &c.snapshot;
        let mut registry: Vec<(String, u64)> = Vec::new();
        for (name, v) in snap.counters.iter().chain(&snap.gauges) {
            registry.push((name.clone(), *v));
        }
        for (name, h) in &snap.histograms {
            registry.push((name.clone(), h.count));
        }
        spans("span", &snap.spans, &mut registry);
        registry.sort();
        let journal = c
            .journal
            .events
            .iter()
            .map(|e| format!("{} {:?} {} {:?}", e.thread, e.kind, e.name, e.fields))
            .collect();
        (registry, journal, c.profile.clone())
    }

    #[test]
    fn take_in_flight_then_restore_is_identity_mid_span() {
        let run = |round_trip: bool| {
            crate::reset();
            let outer = crate::span_enter("outer");
            record_some("before", 3);
            if round_trip {
                let depth = crate::span_depth();
                Capture::take_in_flight().restore();
                assert_eq!(crate::span_depth(), depth, "open chain undisturbed");
            }
            record_some("after", 5);
            drop(outer);
            settle()
        };
        let plain = run(false);
        let tripped = run(true);
        assert_eq!(structural(&tripped), structural(&plain));
        assert_eq!(plain.snapshot.counter("before"), Some(3));
        if crate::is_enabled() {
            assert!(!plain.profile.is_empty());
        }
    }

    #[test]
    fn panicking_closure_between_take_and_restore_leaves_no_trace() {
        let run = |panic_inside: bool| {
            crate::reset();
            let outer = crate::span_enter("outer");
            record_some("kept", 2);
            if panic_inside {
                let saved = Capture::take_in_flight();
                let outcome = std::panic::catch_unwind(|| {
                    let _junk = crate::span_enter("junk");
                    record_some("discarded", 99);
                    panic!("injected");
                });
                assert!(outcome.is_err());
                drop(Capture::take_in_flight());
                saved.restore();
            }
            record_some("later", 4);
            drop(outer);
            settle()
        };
        let clean = run(false);
        let rolled_back = run(true);
        assert_eq!(structural(&rolled_back), structural(&clean));
        assert_eq!(rolled_back.snapshot.counter("discarded"), None);
    }

    #[test]
    fn absorb_grafts_a_worker_under_the_open_span() {
        crate::reset();
        let worker = std::thread::spawn(|| {
            record_some("work", 7);
            Capture::take()
        })
        .join()
        .expect("worker panicked");
        let worker_thread = worker.journal.events[0].thread;
        {
            let _flow = crate::span_enter("flow");
            worker.absorb();
        }
        let merged = settle();
        assert_eq!(merged.snapshot.counter("work"), Some(7));
        let flow = &merged.snapshot.spans[0];
        assert_eq!(
            (flow.name.as_str(), flow.children[0].name.as_str()),
            ("flow", "work")
        );
        assert!(merged
            .journal
            .events
            .iter()
            .any(|e| e.thread == worker_thread && e.name == "work"));
        if crate::is_enabled() {
            let stacks: Vec<&str> = merged
                .profile
                .samples
                .keys()
                .map(|(s, _)| s.as_str())
                .collect();
            assert_eq!(stacks, vec!["flow;work"]);
        }
    }
}
