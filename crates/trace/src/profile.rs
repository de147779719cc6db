//! Deterministic sampling profiler: effort-tick samples of the open
//! span path and the op class doing the work.
//!
//! Wall-clock profilers answer "where did the nanoseconds go", but their
//! output changes with machine load and job count. This profiler rides
//! the resource governor's *effort ticks* instead — the deterministic
//! logical clock `bds-bdd` already charges one tick per ITE recursion
//! step and one per fresh unique-table insertion. Every
//! [`PROFILE_INTERVAL`] ticks the manager calls [`observe`], which
//! records one sample keyed by
//!
//! * the calling thread's **open span path** (`"flow;flow.decompose"` —
//!   the registry's live span stack joined with `;`), and
//! * the **op class** that paid the tick (`"ite"`, `"unique-insert"`).
//!
//! A profile is therefore a pure function of the work performed: under
//! the flow's determinism contract, jobs=1 and jobs=4 produce
//! byte-identical profiles (`tests/differential_flow.rs` pins this),
//! and [`Profile::folded`] renders flamegraph folded-stack text whose
//! values are sample counts, so flamegraphs work without timestamps.
//!
//! # Merging across shards
//!
//! Like the registry, the profile is thread-local and travels in a
//! [`crate::Capture`], whose two merge directions treat stacks the way
//! they treat span trees: [`crate::Capture::absorb`] **grafts** each
//! stack under the absorbing thread's open span path (a worker that
//! sampled inside `flow.build` lands at `flow;flow.build` when the
//! coordinator absorbs it inside its open `flow` span), while
//! [`crate::Capture::restore`] merges stacks **verbatim**, since a
//! capture put aside and reinstated on the same thread already holds
//! absolute paths.
//!
//! Counts add commutatively and the sample map is ordered, so merging
//! in the fixed worker order yields one canonical profile at any job
//! count.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::json::Json;

/// One profiler sample is recorded every this-many effort ticks.
///
/// Effort ticks arrive roughly as fast as ITE recursion steps, so this
/// is dense enough that every bench circuit produces samples and sparse
/// enough that the sample map stays small and the hot-path check is a
/// single multiple test.
pub const PROFILE_INTERVAL: u64 = 256;

/// A tick-sampled profile: `(open-span path, op class) -> sample count`.
///
/// Obtain via [`crate::Capture`], combine with [`Profile::merge`].
/// Every field is structural — there is no wall-clock anywhere in a
/// profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// Sample counts keyed by (`;`-joined span path, op class). Ordered,
    /// so every rendering of equal profiles is byte-identical.
    pub samples: BTreeMap<(String, String), u64>,
}

thread_local! {
    static PROFILE: RefCell<BTreeMap<(String, String), u64>> =
        const { RefCell::new(BTreeMap::new()) };
}

/// Records one sample attributing the current effort tick to `op` under
/// this thread's open span path. Called from the manager's tick charge
/// (already gated on `is_enabled` and [`PROFILE_INTERVAL`] there);
/// a no-op when instrumentation is off.
pub fn observe(op: &'static str) {
    if !crate::is_enabled() {
        return;
    }
    let stack = crate::registry::open_span_path().join(";");
    PROFILE.with(|p| {
        *p.borrow_mut().entry((stack, op.to_string())).or_insert(0) += 1;
    });
}

/// Drains this thread's samples into an owned [`Profile`].
pub(crate) fn take_profile() -> Profile {
    PROFILE.with(|p| Profile {
        samples: std::mem::take(&mut p.borrow_mut()),
    })
}

/// Clears this thread's samples without returning them.
pub(crate) fn clear_profile() {
    let _ = take_profile();
}

/// Merges a drained profile into this thread's buffer. With `graft`
/// each stack lands under this thread's open span path (a worker's
/// samples, [`crate::Capture::absorb`]); without it stacks merge
/// verbatim (a profile put aside on this same thread,
/// [`crate::Capture::restore`]). Counts add, so absorbing workers in a
/// fixed order gives the same profile at any thread schedule.
pub(crate) fn fold_profile(other: &Profile, graft: bool) {
    let prefix = if graft {
        crate::registry::open_span_path().join(";")
    } else {
        String::new()
    };
    PROFILE.with(|p| {
        let mut p = p.borrow_mut();
        for ((stack, op), count) in &other.samples {
            *p.entry((graft_path(&prefix, stack), op.clone()))
                .or_insert(0) += count;
        }
    });
}

/// Joins a graft prefix and a sampled stack, eliding empty sides.
fn graft_path(prefix: &str, stack: &str) -> String {
    match (prefix.is_empty(), stack.is_empty()) {
        (true, _) => stack.to_string(),
        (false, true) => prefix.to_string(),
        (false, false) => format!("{prefix};{stack}"),
    }
}

impl Profile {
    /// Number of distinct (stack, op) keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total sample count across all keys.
    #[must_use]
    pub fn sample_total(&self) -> u64 {
        self.samples.values().sum()
    }

    /// Folds `other` into `self`: counts add by key. Commutative and
    /// associative, so any grouping of worker profiles folds to the
    /// same map.
    pub fn merge(&mut self, other: &Profile) {
        for ((stack, op), count) in &other.samples {
            *self.samples.entry((stack.clone(), op.clone())).or_insert(0) += count;
        }
    }

    /// Serializes the profile: `interval` plus one `[stack, op, count]`
    /// row per key, in map (byte-sorted) order. Fully structural, so
    /// equal profiles render byte-identically.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let samples = self
            .samples
            .iter()
            .map(|((stack, op), count)| {
                Json::Arr(vec![
                    Json::Str(stack.clone()),
                    Json::Str(op.clone()),
                    Json::Int(*count),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("interval".to_string(), Json::Int(PROFILE_INTERVAL)),
            ("samples".to_string(), Json::Arr(samples)),
        ])
    }

    /// Parses a profile rendered by [`Profile::to_json`]. Duplicate
    /// keys merge additively. `None` if the shape is not a profile.
    #[must_use]
    pub fn from_json(doc: &Json) -> Option<Profile> {
        let mut out = Profile::default();
        for row in doc.get("samples")?.as_arr()? {
            let row = row.as_arr()?;
            let stack = row.first()?.as_str()?.to_string();
            let op = row.get(1)?.as_str()?.to_string();
            let count = row.get(2)?.as_u64()?;
            *out.samples.entry((stack, op)).or_insert(0) += count;
        }
        Some(out)
    }

    /// Folded flamegraph text with sample counts as values: one line
    /// per key, `prefix;span;path;op count` (frames that are empty are
    /// elided). Same shape as [`crate::export::folded_stacks`], so the
    /// usual flamegraph tools consume it directly — the x-axis is
    /// deterministic effort instead of noisy nanoseconds.
    #[must_use]
    pub fn folded(&self, prefix: &str) -> String {
        let mut out = String::new();
        for ((stack, op), count) in &self.samples {
            let frames = graft_path(&graft_path(prefix, stack), op);
            out.push_str(&frames);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(rows: &[(&str, &str, u64)]) -> Profile {
        Profile {
            samples: rows
                .iter()
                .map(|&(s, o, c)| ((s.to_string(), o.to_string()), c))
                .collect(),
        }
    }

    #[test]
    fn observe_keys_by_open_span_path() {
        crate::reset();
        clear_profile();
        {
            let _flow = crate::span_enter("flow");
            let _build = crate::span_enter("flow.build");
            observe("ite");
            observe("ite");
            observe("unique-insert");
        }
        observe("ite"); // no spans open: empty stack
        let p = take_profile();
        if crate::is_enabled() {
            assert_eq!(
                p.samples.get(&("flow;flow.build".into(), "ite".into())),
                Some(&2)
            );
            assert_eq!(
                p.samples
                    .get(&("flow;flow.build".into(), "unique-insert".into())),
                Some(&1)
            );
            assert_eq!(p.samples.get(&(String::new(), "ite".into())), Some(&1));
        } else {
            assert!(p.is_empty(), "observe is a no-op without `enabled`");
        }
        crate::reset();
    }

    #[test]
    fn absorb_grafts_under_the_open_span() {
        crate::reset();
        clear_profile();
        let worker = profile(&[("flow.build", "ite", 3), ("", "unique-insert", 1)]);
        {
            let _flow = crate::span_enter("flow");
            fold_profile(&worker, true);
            fold_profile(&worker, true);
        }
        let p = take_profile();
        assert_eq!(
            p.samples.get(&("flow;flow.build".into(), "ite".into())),
            Some(&6)
        );
        // An empty worker stack lands on the graft point itself.
        assert_eq!(
            p.samples.get(&("flow".into(), "unique-insert".into())),
            Some(&2)
        );
        crate::reset();
    }

    #[test]
    fn restore_merges_verbatim_even_inside_a_span() {
        crate::reset();
        clear_profile();
        let saved = profile(&[("flow;flow.decompose", "ite", 5)]);
        {
            let _flow = crate::span_enter("flow");
            fold_profile(&saved, false);
        }
        let p = take_profile();
        // No doubled `flow` prefix: restore does not graft.
        assert_eq!(
            p.samples.get(&("flow;flow.decompose".into(), "ite".into())),
            Some(&5)
        );
        crate::reset();
    }

    #[test]
    fn merge_is_commutative() {
        let a = profile(&[("flow", "ite", 2), ("flow;flow.build", "ite", 1)]);
        let b = profile(&[("flow", "ite", 3), ("flow", "unique-insert", 7)]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.sample_total(), 13);
        assert_eq!(ab.len(), 3);
    }

    #[test]
    fn json_round_trip_is_lossless_and_canonical() {
        let p = profile(&[("flow;flow.build", "ite", 4), ("flow", "unique-insert", 2)]);
        let doc = p.to_json();
        assert_eq!(Profile::from_json(&doc), Some(p.clone()));
        // Equal profiles render byte-identically (map order is total).
        assert_eq!(doc.render(), p.clone().to_json().render());
        assert_eq!(Profile::from_json(&Json::Null), None);
    }

    #[test]
    fn folded_elides_empty_frames() {
        let p = profile(&[("flow;flow.build", "ite", 4), ("", "unique-insert", 2)]);
        assert_eq!(
            p.folded("csel8"),
            "csel8;unique-insert 2\ncsel8;flow;flow.build;ite 4\n"
        );
        assert_eq!(p.folded(""), "unique-insert 2\nflow;flow.build;ite 4\n");
    }
}
