//! Thread-local metric registry: counters, gauges, histograms, span tree.
//!
//! Each thread owns an independent registry, so parallel tests cannot
//! contaminate each other's numbers and no locking sits on the hot path.
//! Parallel phases (the sharded flow, worker pools) bridge the gap
//! explicitly: each worker drains its own thread with
//! [`crate::Capture::take`] before exiting, and the coordinating thread
//! folds the results back with [`Snapshot::merge`] or re-injects them
//! into its live registry with [`crate::Capture::absorb`] — counters
//! sum, gauges keep the maximum (every gauge in this workspace is a
//! peak), histograms add bucket-wise, and span trees merge recursively
//! by `(parent, name)`.
//! Merging in a fixed worker order keeps the result deterministic
//! regardless of thread scheduling.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::json::Json;
use crate::span::fmt_duration_ns;

/// Number of log2 buckets in a [`Histogram`]: one per possible leading
/// bit of a `u64` value.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A latency/size histogram with fixed log2 buckets.
///
/// Bucket `i` counts recorded values `v` with `bucket_index(v) == i`,
/// where bucket 0 holds `v == 0` and bucket `i > 0` holds values whose
/// highest set bit is `i - 1` (i.e. `2^(i-1) <= v < 2^i`). The exact sum
/// and count are kept alongside so means stay precise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket observation counts, indexed by [`Histogram::bucket_index`].
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total number of recorded observations.
    pub count: u64,
    /// Exact sum of all recorded values (saturating).
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Log2 bucket for a value: 0 for 0, else `64 - leading_zeros`.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Mean of all observations, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            // Precision loss is acceptable for a summary statistic.
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum as f64 / self.count as f64
            }
        }
    }

    /// Inclusive lower bound of the highest non-empty bucket (a cheap
    /// "max is at least" statistic), or 0 when empty.
    #[must_use]
    pub fn max_bucket_floor(&self) -> u64 {
        for i in (0..HISTOGRAM_BUCKETS).rev() {
            if self.buckets[i] > 0 {
                return if i == 0 { 0 } else { 1u64 << (i - 1) };
            }
        }
        0
    }

    /// Adds `other`'s observations into `self`: buckets add element-wise,
    /// `count` adds, `sum` saturates. Merging is commutative and
    /// associative, so folding worker histograms in any order yields the
    /// same result (determinism is still achieved by merging in a fixed
    /// worker order, which also fixes name ordering elsewhere).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`), or 0.0 when empty.
    ///
    /// The target rank `q * count` is located by walking the cumulative
    /// bucket counts; within the hit bucket the value is linearly
    /// interpolated across the bucket's `[2^(i-1), 2^i)` range. The
    /// estimate is exact only up to bucket resolution — good enough for
    /// the p50/p95 summary lines in [`Snapshot::render_tree`].
    #[must_use]
    #[allow(clippy::cast_precision_loss)] // tallies; f64 loss fine for a summary stat
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                if i == 0 {
                    return 0.0;
                }
                let lo = (1u64 << (i - 1)) as f64;
                let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo + lo * frac;
            }
            below += c;
        }
        self.max_bucket_floor() as f64
    }
}

/// One aggregated node of the span call tree in a [`Snapshot`].
///
/// Spans with the same name under the same parent are merged: `calls`
/// counts how many guard drops landed here and `total_ns` sums their
/// wall-clock time. Children appear in first-entered order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnap {
    /// Span name as passed to `span!` / [`crate::span_enter`].
    pub name: String,
    /// Completed enter/exit pairs aggregated into this node.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all calls.
    pub total_ns: u64,
    /// Child spans in first-entered order.
    pub children: Vec<SpanSnap>,
}

/// A point-in-time copy of every metric in the registry, detached from
/// the live registry and safe to ship to a sink.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Peak gauges (the higher value wins), sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
    /// Root spans in first-entered order.
    pub spans: Vec<SpanSnap>,
}

impl Snapshot {
    /// Value of a counter by name, if it was ever incremented.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a gauge by name, if it was ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Folds `other` into `self`, the cross-thread aggregation used by
    /// the sharded flow: counters **sum** by name, gauges keep the
    /// **maximum** (all registry gauges are peaks), histograms merge
    /// bucket-wise, and span trees merge recursively by `(parent, name)`
    /// — calls and nanoseconds add, children in `self`'s order with
    /// `other`'s new names appended in their own order. Merging worker
    /// snapshots in a fixed (worker-index) order therefore produces one
    /// deterministic snapshot regardless of thread completion order.
    pub fn merge(&mut self, other: &Snapshot) {
        let mut counters: BTreeMap<String, u64> = self.counters.drain(..).collect();
        for (name, v) in &other.counters {
            *counters.entry(name.clone()).or_insert(0) += v;
        }
        self.counters = counters.into_iter().collect();

        let mut gauges: BTreeMap<String, u64> = self.gauges.drain(..).collect();
        for (name, v) in &other.gauges {
            let slot = gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(*v);
        }
        self.gauges = gauges.into_iter().collect();

        let mut histograms: BTreeMap<String, Histogram> = self.histograms.drain(..).collect();
        for (name, h) in &other.histograms {
            histograms.entry(name.clone()).or_default().merge(h);
        }
        self.histograms = histograms.into_iter().collect();

        merge_span_lists(&mut self.spans, &other.spans);
    }

    /// Renders the snapshot as an indented human-readable tree.
    #[must_use]
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for s in &self.spans {
                render_span(s, 1, &mut out);
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name} = {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name} = {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name}: count={} mean={:.1} p50={:.1} p95={:.1} max>={}\n",
                    h.count,
                    h.mean(),
                    h.percentile(0.50),
                    h.percentile(0.95),
                    h.max_bucket_floor()
                ));
            }
        }
        out
    }

    /// Serializes the snapshot into the report JSON shape understood by
    /// [`Snapshot::from_json`].
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), Json::Int(*v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(n, v)| (n.clone(), Json::Int(*v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(n, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(i, &c)| Json::Arr(vec![Json::Int(i as u64), Json::Int(c)]))
                    .collect();
                (
                    n.clone(),
                    Json::Obj(vec![
                        ("count".into(), Json::Int(h.count)),
                        ("sum".into(), Json::Int(h.sum)),
                        ("buckets".into(), Json::Arr(buckets)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("counters".into(), Json::Obj(counters)),
            ("gauges".into(), Json::Obj(gauges)),
            ("histograms".into(), Json::Obj(histograms)),
            (
                "spans".into(),
                Json::Arr(self.spans.iter().map(span_to_json).collect()),
            ),
        ])
    }

    /// Reconstructs a snapshot from the JSON produced by
    /// [`Snapshot::to_json`]. Returns `None` on any shape mismatch.
    #[must_use]
    pub fn from_json(j: &Json) -> Option<Snapshot> {
        let mut snap = Snapshot::default();
        for (name, v) in j.get("counters")?.entries()? {
            snap.counters.push((name.clone(), v.as_u64()?));
        }
        for (name, v) in j.get("gauges")?.entries()? {
            snap.gauges.push((name.clone(), v.as_u64()?));
        }
        for (name, v) in j.get("histograms")?.entries()? {
            let mut h = Histogram {
                count: v.get("count")?.as_u64()?,
                sum: v.get("sum")?.as_u64()?,
                ..Histogram::default()
            };
            for pair in v.get("buckets")?.as_arr()? {
                let pair = pair.as_arr()?;
                let idx = usize::try_from(pair.first()?.as_u64()?).ok()?;
                if idx >= HISTOGRAM_BUCKETS {
                    return None;
                }
                h.buckets[idx] = pair.get(1)?.as_u64()?;
            }
            snap.histograms.push((name.clone(), h));
        }
        for s in j.get("spans")?.as_arr()? {
            snap.spans.push(span_from_json(s)?);
        }
        Some(snap)
    }
}

/// Merges `src` span trees into `dst`: same-named siblings combine
/// (calls and nanoseconds add, children merge recursively), new names
/// append in `src` order.
fn merge_span_lists(dst: &mut Vec<SpanSnap>, src: &[SpanSnap]) {
    for s in src {
        if let Some(d) = dst.iter_mut().find(|d| d.name == s.name) {
            d.calls += s.calls;
            d.total_ns = d.total_ns.saturating_add(s.total_ns);
            merge_span_lists(&mut d.children, &s.children);
        } else {
            dst.push(s.clone());
        }
    }
}

fn render_span(s: &SpanSnap, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let calls = if s.calls == 1 {
        "1 call".to_string()
    } else {
        format!("{} calls", s.calls)
    };
    out.push_str(&format!(
        "{indent}{:<28} {:>9}  {}\n",
        s.name,
        calls,
        fmt_duration_ns(s.total_ns)
    ));
    for c in &s.children {
        render_span(c, depth + 1, out);
    }
}

fn span_to_json(s: &SpanSnap) -> Json {
    let mut fields = vec![
        ("name".into(), Json::Str(s.name.clone())),
        ("calls".into(), Json::Int(s.calls)),
        ("ns".into(), Json::Int(s.total_ns)),
    ];
    if !s.children.is_empty() {
        fields.push((
            "children".into(),
            Json::Arr(s.children.iter().map(span_to_json).collect()),
        ));
    }
    Json::Obj(fields)
}

fn span_from_json(j: &Json) -> Option<SpanSnap> {
    let mut s = SpanSnap {
        name: j.get("name")?.as_str()?.to_string(),
        calls: j.get("calls")?.as_u64()?,
        total_ns: j.get("ns")?.as_u64()?,
        children: Vec::new(),
    };
    if let Some(children) = j.get("children") {
        for c in children.as_arr()? {
            s.children.push(span_from_json(c)?);
        }
    }
    Some(s)
}

/// Live span node: index-linked tree in a flat arena. Names are owned
/// strings so absorbed worker snapshots (whose names arrive as `String`)
/// and macro call sites (`&'static str`) share one arena.
struct SpanNode {
    name: String,
    calls: u64,
    total_ns: u64,
    children: Vec<usize>,
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    arena: Vec<SpanNode>,
    roots: Vec<usize>,
    stack: Vec<usize>,
}

impl Registry {
    /// Finds or creates the span node `name` under `parent` (or the root
    /// set) without touching the stack. Shared by `enter` and the
    /// snapshot absorber.
    fn node_under(&mut self, parent: Option<usize>, name: &str) -> usize {
        let siblings: &[usize] = match parent {
            Some(p) => &self.arena[p].children,
            None => &self.roots,
        };
        let found = siblings
            .iter()
            .copied()
            .find(|&i| self.arena[i].name == name);
        match found {
            Some(i) => i,
            None => {
                let i = self.arena.len();
                self.arena.push(SpanNode {
                    name: name.to_string(),
                    calls: 0,
                    total_ns: 0,
                    children: Vec::new(),
                });
                match parent {
                    Some(p) => self.arena[p].children.push(i),
                    None => self.roots.push(i),
                }
                i
            }
        }
    }

    /// Finds or creates the child span `name` under the current stack
    /// top (or the root set), and makes it the new top.
    fn enter(&mut self, name: &str) -> usize {
        let idx = self.node_under(self.stack.last().copied(), name);
        self.stack.push(idx);
        idx
    }

    /// Merges a snapshot span tree under `parent` (the innermost open
    /// span during [`fold_snapshot`]): calls and nanoseconds add,
    /// children recurse.
    fn absorb_span(&mut self, parent: Option<usize>, snap: &SpanSnap) {
        let idx = self.node_under(parent, &snap.name);
        self.arena[idx].calls += snap.calls;
        self.arena[idx].total_ns = self.arena[idx].total_ns.saturating_add(snap.total_ns);
        for child in &snap.children {
            self.absorb_span(Some(idx), child);
        }
    }

    /// Records a completed span. Normally the guard being dropped sits on
    /// top of the stack; if snapshots or resets disturbed the stack we
    /// recover by matching the nearest enclosing span of the same name,
    /// or re-entering it, so drops never panic and nesting stays balanced.
    fn exit(&mut self, name: &str, ns: u64) {
        let idx = match self.stack.iter().rposition(|&i| self.arena[i].name == name) {
            Some(pos) => {
                let idx = self.stack[pos];
                self.stack.truncate(pos);
                idx
            }
            None => {
                let idx = self.enter(name);
                self.stack.pop();
                idx
            }
        };
        self.arena[idx].calls += 1;
        self.arena[idx].total_ns = self.arena[idx].total_ns.saturating_add(ns);
    }

    fn snapshot_span(&self, idx: usize) -> SpanSnap {
        let node = &self.arena[idx];
        SpanSnap {
            name: node.name.clone(),
            calls: node.calls,
            total_ns: node.total_ns,
            children: node
                .children
                .iter()
                .map(|&c| self.snapshot_span(c))
                .collect(),
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.iter().map(|(n, &v)| (n.clone(), v)).collect(),
            gauges: self.gauges.iter().map(|(n, &v)| (n.clone(), v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, &h)| (n.clone(), h))
                .collect(),
            spans: self.roots.iter().map(|&i| self.snapshot_span(i)).collect(),
        }
    }
}

thread_local! {
    static REGISTRY: RefCell<Registry> = RefCell::new(Registry::default());
}

fn with<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    REGISTRY.with(|r| f(&mut r.borrow_mut()))
}

/// Adds `by` to the named monotonic counter, creating it at zero first.
pub fn add_counter(name: &'static str, by: u64) {
    with(|r| {
        // Fast path avoids allocating the key on every increment.
        if let Some(v) = r.counters.get_mut(name) {
            *v += by;
        } else {
            r.counters.insert(name.to_string(), by);
        }
    });
}

/// Raises the named gauge to `value` (the higher value wins). Every
/// gauge in this workspace is a peak, and [`Snapshot::merge`] already
/// maxes gauges across workers — keeping the same rule *within* a
/// thread makes a sequential run and a worker-merged run agree: two
/// flow candidates running back-to-back on one thread record the same
/// peak as the same candidates running on two absorbed workers.
pub fn set_gauge(name: &'static str, value: u64) {
    with(|r| {
        if let Some(v) = r.gauges.get_mut(name) {
            *v = (*v).max(value);
        } else {
            r.gauges.insert(name.to_string(), value);
        }
    });
}

/// Records one observation into the named histogram.
pub fn record_histogram(name: &'static str, value: u64) {
    with(|r| {
        if let Some(h) = r.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::default();
            h.record(value);
            r.histograms.insert(name.to_string(), h);
        }
    });
}

/// Current value of a counter (0 if never incremented). Mainly for tests.
#[must_use]
pub fn counter_value(name: &str) -> u64 {
    with(|r| r.counters.get(name).copied().unwrap_or(0))
}

/// Number of currently open spans on this thread. Mainly for tests: a
/// balanced workload must come back to the depth it started at.
#[must_use]
pub fn span_depth() -> usize {
    with(|r| r.stack.len())
}

/// Clears every metric on this thread, including open spans. Guards that
/// outlive a reset re-register themselves on drop (see `Registry::exit`).
pub fn reset() {
    with(|r| *r = Registry::default());
}

/// Copies all metrics out and clears the registry.
///
/// The registry is **thread-local**: this returns only the calling
/// thread's metrics, and anything recorded on sibling threads is
/// silently absent (see the crate docs). A snapshot is normally taken at
/// a quiescent point — all span guards dropped — and debug builds assert
/// `span_depth() == 0` to catch snapshots inside an open span, where the
/// open span would show zero completed calls. Use
/// [`crate::Capture::take_in_flight`] when a mid-span capture is
/// intentional.
///
/// ```
/// bds_trace::reset();
/// {
///     let _s = bds_trace::span_enter("work");
///     bds_trace::add_counter("steps", 2);
/// } // guard dropped: depth back to 0, safe to snapshot
/// let snap = bds_trace::take_snapshot();
/// assert_eq!(snap.counter("steps"), Some(2));
///
/// // Metrics recorded on another thread do NOT appear here:
/// std::thread::spawn(|| bds_trace::add_counter("elsewhere", 1))
///     .join()
///     .unwrap();
/// assert_eq!(bds_trace::take_snapshot().counter("elsewhere"), None);
/// ```
#[must_use]
pub fn take_snapshot() -> Snapshot {
    debug_assert_eq!(
        span_depth(),
        0,
        "take_snapshot inside an open span; drop the guards first or use \
         Capture::take_in_flight"
    );
    take_snapshot_in_flight()
}

/// Like [`take_snapshot`], but explicitly allowed while spans are open:
/// the chain of open spans is preserved in the cleared registry (with
/// zeroed timings) so in-flight guards keep recording into a consistent
/// tree. The open spans appear in the snapshot with zero completed calls.
/// Reached through [`crate::Capture::take_in_flight`].
pub(crate) fn take_snapshot_in_flight() -> Snapshot {
    with(|r| {
        let snap = r.snapshot();
        let chain: Vec<String> = r.stack.iter().map(|&i| r.arena[i].name.clone()).collect();
        *r = Registry::default();
        for name in chain {
            r.enter(&name);
        }
        snap
    })
}

/// Folds a detached [`Snapshot`] into **this thread's live registry**:
/// counters add, gauges keep the maximum and histograms merge. With
/// `graft` the snapshot's span roots nest under the innermost span open
/// on this thread, which is how a worker's phase spans land under the
/// coordinator's flow span exactly as in a sequential run
/// ([`crate::Capture::absorb`]). Without it they merge at root level by
/// name, the inverse of [`take_snapshot_in_flight`]
/// ([`crate::Capture::restore`]): grafting there would nest the
/// snapshot's own open-chain placeholder (a zero-call `flow` root)
/// under the live `flow` span and double the chain.
pub(crate) fn fold_snapshot(snap: &Snapshot, graft: bool) {
    with(|r| {
        for (name, v) in &snap.counters {
            if let Some(slot) = r.counters.get_mut(name) {
                *slot += v;
            } else {
                r.counters.insert(name.clone(), *v);
            }
        }
        for (name, v) in &snap.gauges {
            if let Some(slot) = r.gauges.get_mut(name) {
                *slot = (*slot).max(*v);
            } else {
                r.gauges.insert(name.clone(), *v);
            }
        }
        for (name, h) in &snap.histograms {
            if let Some(slot) = r.histograms.get_mut(name) {
                slot.merge(h);
            } else {
                r.histograms.insert(name.clone(), *h);
            }
        }
        let parent = if graft { r.stack.last().copied() } else { None };
        for s in &snap.spans {
            r.absorb_span(parent, s);
        }
    });
}

/// Names of the currently open spans on this thread, outermost first.
/// The profiler uses this to attribute an effort-tick sample to the
/// live span path.
pub(crate) fn open_span_path() -> Vec<String> {
    with(|r| r.stack.iter().map(|&i| r.arena[i].name.clone()).collect())
}

/// Internal hook for `SpanGuard`.
pub(crate) fn enter_named(name: &'static str) {
    with(|r| {
        r.enter(name);
    });
}

/// Internal hook for `SpanGuard::drop`.
pub(crate) fn exit_named(name: &'static str, ns: u64) {
    with(|r| r.exit(name, ns));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        let mut h = Histogram::default();
        h.record(0);
        h.record(5);
        h.record(5);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 10);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[3], 2);
        assert!((h.mean() - 10.0 / 3.0).abs() < 1e-9);
        assert_eq!(h.max_bucket_floor(), 4);
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(0.5), 0.0);
        for v in 1..=8u64 {
            h.record(v);
        }
        // Buckets: [1]=1, [2]=2 (values 2-3), [3]=4 (values 4-7), [4]=1
        // (value 8). p50 rank = 4.0 lands in bucket 3 (cumulative 3..7):
        // lo=4, frac=(4-3)/4 -> 4 + 4*0.25 = 5.0.
        assert!((h.percentile(0.50) - 5.0).abs() < 1e-9);
        // p95 rank = 7.6 lands in bucket 4 (cumulative 7..8): lo=8,
        // frac=(7.6-7)/1 -> 8 + 8*0.6 = 12.8.
        assert!((h.percentile(0.95) - 12.8).abs() < 1e-9);
        // Extremes clamp instead of running off the bucket array.
        assert!((h.percentile(0.0) - 1.0).abs() < 1e-9);
        assert!((h.percentile(1.0) - 16.0).abs() < 1e-9);
        let mut zeros = Histogram::default();
        zeros.record(0);
        assert_eq!(zeros.percentile(0.99), 0.0);
    }

    #[test]
    fn spans_aggregate_by_parent_and_name() {
        reset();
        for _ in 0..3 {
            let _outer = crate::span_enter("outer");
            let _inner = crate::span_enter("inner");
        }
        {
            let _other = crate::span_enter("other");
        }
        let snap = take_snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].name, "outer");
        assert_eq!(snap.spans[0].calls, 3);
        assert_eq!(snap.spans[0].children.len(), 1);
        assert_eq!(snap.spans[0].children[0].name, "inner");
        assert_eq!(snap.spans[0].children[0].calls, 3);
        assert_eq!(snap.spans[1].name, "other");
        assert_eq!(span_depth(), 0);
    }

    #[test]
    fn snapshot_preserves_open_span_chain() {
        reset();
        let outer = crate::span_enter("outer");
        let first = take_snapshot_in_flight();
        // `outer` had not finished, so it appears with zero completed calls.
        assert_eq!(first.spans[0].calls, 0);
        {
            let _inner = crate::span_enter("inner");
        }
        drop(outer);
        let second = take_snapshot();
        assert_eq!(second.spans[0].name, "outer");
        assert_eq!(second.spans[0].calls, 1);
        assert_eq!(second.spans[0].children[0].name, "inner");
        assert_eq!(span_depth(), 0);
    }

    #[test]
    fn plain_fold_inverts_take_snapshot_in_flight() {
        reset();
        let outer = crate::span_enter("outer");
        add_counter("before", 1);
        // Put the registry aside mid-span, as the flow quarantine does…
        let saved = take_snapshot_in_flight();
        // …do some work that will be discarded…
        add_counter("discarded", 99);
        {
            let _junk = crate::span_enter("junk");
        }
        let _ = take_snapshot_in_flight();
        // …and reinstate. The open `outer` chain must merge with the saved
        // root-level `outer` placeholder instead of nesting under it.
        fold_snapshot(&saved, false);
        {
            let _inner = crate::span_enter("inner");
        }
        drop(outer);
        let snap = take_snapshot();
        assert_eq!(snap.counter("before"), Some(1));
        assert_eq!(snap.counter("discarded"), None);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "outer");
        assert_eq!(snap.spans[0].calls, 1);
        let children: Vec<&str> = snap.spans[0]
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(children, vec!["inner"], "no doubled `outer` chain");
        assert_eq!(span_depth(), 0);
    }

    #[test]
    fn counters_gauges_and_lookup() {
        reset();
        add_counter("a", 2);
        add_counter("a", 3);
        set_gauge("g", 7);
        set_gauge("g", 9);
        record_histogram("h", 100);
        assert_eq!(counter_value("a"), 5);
        let snap = take_snapshot();
        assert_eq!(snap.counter("a"), Some(5));
        assert_eq!(snap.gauge("g"), Some(9));
        assert_eq!(snap.histograms[0].1.count, 1);
        assert!(take_snapshot().is_empty());
    }

    #[test]
    fn snapshot_merge_sums_counters_and_maxes_gauges() {
        let mut a = Snapshot {
            counters: vec![("x".into(), 2), ("y".into(), 1)],
            gauges: vec![("peak".into(), 10)],
            ..Snapshot::default()
        };
        let b = Snapshot {
            counters: vec![("x".into(), 3), ("z".into(), 7)],
            gauges: vec![("peak".into(), 4), ("other".into(), 9)],
            ..Snapshot::default()
        };
        a.merge(&b);
        assert_eq!(a.counter("x"), Some(5));
        assert_eq!(a.counter("y"), Some(1));
        assert_eq!(a.counter("z"), Some(7));
        assert_eq!(a.gauge("peak"), Some(10));
        assert_eq!(a.gauge("other"), Some(9));
        // Names stay sorted so merged reports render deterministically.
        let names: Vec<&str> = a.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
    }

    #[test]
    fn histogram_merge_adds_buckets_counts_and_sums() {
        let mut a = Histogram::default();
        a.record(0);
        a.record(5);
        let mut b = Histogram::default();
        b.record(5);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, 1010);
        assert_eq!(a.buckets[0], 1);
        assert_eq!(a.buckets[Histogram::bucket_index(5)], 2);
        assert_eq!(a.buckets[Histogram::bucket_index(1000)], 1);
    }

    #[test]
    fn snapshot_merge_combines_span_trees_by_name() {
        let tree = |calls| SpanSnap {
            name: "flow.build".into(),
            calls,
            total_ns: 10,
            children: vec![SpanSnap {
                name: "inner".into(),
                calls,
                total_ns: 5,
                children: Vec::new(),
            }],
        };
        let mut a = Snapshot {
            spans: vec![tree(2)],
            ..Snapshot::default()
        };
        let b = Snapshot {
            spans: vec![
                tree(3),
                SpanSnap {
                    name: "flow.reorder".into(),
                    calls: 1,
                    total_ns: 1,
                    children: Vec::new(),
                },
            ],
            ..Snapshot::default()
        };
        a.merge(&b);
        assert_eq!(a.spans.len(), 2);
        assert_eq!(a.spans[0].calls, 5);
        assert_eq!(a.spans[0].total_ns, 20);
        assert_eq!(a.spans[0].children[0].calls, 5);
        assert_eq!(a.spans[1].name, "flow.reorder");
    }

    #[test]
    fn fold_snapshot_grafts_under_open_span() {
        reset();
        let worker = Snapshot {
            counters: vec![("w.steps".into(), 4)],
            spans: vec![SpanSnap {
                name: "flow.build".into(),
                calls: 4,
                total_ns: 40,
                children: Vec::new(),
            }],
            ..Snapshot::default()
        };
        {
            let _flow = crate::span_enter("flow");
            fold_snapshot(&worker, true);
            fold_snapshot(&worker, true);
        }
        let snap = take_snapshot();
        assert_eq!(snap.counter("w.steps"), Some(8));
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "flow");
        let child = &snap.spans[0].children[0];
        assert_eq!((child.name.as_str(), child.calls), ("flow.build", 8));
    }

    #[test]
    fn render_tree_mentions_all_sections() {
        reset();
        add_counter("c", 1);
        set_gauge("g", 2);
        record_histogram("h", 3);
        {
            let _s = crate::span_enter("root");
        }
        let text = take_snapshot().render_tree();
        for needle in [
            "spans:",
            "counters:",
            "gauges:",
            "histograms:",
            "root",
            "c = 1",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
