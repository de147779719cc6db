//! Integration tests for the flight-recorder journal and its exporters.
//!
//! * Ring wraparound — a seeded property test drives random
//!   capacity/load combinations and checks the ring always keeps exactly
//!   the newest events, in order, with an exact eviction count.
//! * Perfetto golden — a hand-built journal (including field values that
//!   need JSON string escaping) renders to trace-event JSON that the
//!   hand-rolled parser accepts back, with balanced `B`/`E` records.
//! * Folded golden — a live span tree drained through `take_snapshot`
//!   folds to one line per leaf, `prefix;path;leaf total_ns`.
//!
//! The journal machinery is always compiled (only the `event!` macro is
//! feature-gated), so these tests run in both feature states.

use bds_prop::{check_cases, Rng};
use bds_trace::export::{folded_stacks, perfetto_trace};
use bds_trace::json::{parse, Json};
use bds_trace::{
    record_event, set_journal_capacity, Capture, Event, EventKind, FieldValue, Journal,
    DEFAULT_JOURNAL_CAPACITY,
};

/// Random capacity, random load: the ring keeps exactly the newest
/// `min(pushed, capacity)` events in recording order, counts every
/// eviction, and timestamps never run backwards.
#[test]
fn ring_wraparound_keeps_newest_events() {
    check_cases("journal-wraparound", 48, |rng: &mut Rng| {
        bds_trace::reset();
        let capacity = rng.range_usize(1..32);
        set_journal_capacity(capacity);
        let pushed = rng.range_usize(0..96);
        for i in 0..pushed {
            record_event("tick", vec![("i", FieldValue::from(i))]);
        }
        let journal = Capture::take().journal;
        assert_eq!(journal.events.len(), pushed.min(capacity));
        assert_eq!(journal.dropped, pushed.saturating_sub(capacity) as u64);
        let first_kept = pushed - journal.events.len();
        for (k, e) in journal.events.iter().enumerate() {
            assert_eq!(e.fields[0].1, FieldValue::from(first_kept + k));
            if k > 0 {
                assert!(journal.events[k - 1].ts_ns <= e.ts_ns, "timestamps ordered");
            }
        }
        set_journal_capacity(DEFAULT_JOURNAL_CAPACITY);
    });
}

/// Golden check on the Perfetto exporter: a fixed journal — with an
/// instant whose string field needs every JSON escape class (quote,
/// backslash, newline, control byte) — renders to text the hand parser
/// accepts, with balanced `B`/`E` records and the field value intact.
#[test]
fn perfetto_export_escapes_strings_and_balances_spans() {
    let nasty = "say \"hi\" \\ back\ntab\there";
    let journal = Journal {
        events: vec![
            Event {
                ts_ns: 1_000,
                thread: 1,
                kind: EventKind::SpanEnter,
                name: "flow",
                fields: Vec::new(),
            },
            Event {
                ts_ns: 1_500,
                thread: 1,
                kind: EventKind::SpanEnter,
                name: "decompose",
                fields: Vec::new(),
            },
            Event {
                ts_ns: 2_000,
                thread: 1,
                kind: EventKind::Instant,
                name: "decompose.choice",
                fields: vec![
                    ("msg", FieldValue::Str(nasty.to_string())),
                    ("candidates", FieldValue::U64(3)),
                    ("node_delta", FieldValue::I64(-2)),
                ],
            },
            Event {
                ts_ns: 2_500,
                thread: 1,
                kind: EventKind::SpanExit,
                name: "decompose",
                fields: Vec::new(),
            },
            Event {
                ts_ns: 3_000,
                thread: 1,
                kind: EventKind::SpanExit,
                name: "flow",
                fields: Vec::new(),
            },
        ],
        dropped: 0,
        capacity: 16,
    };
    let text = perfetto_trace(&journal).render();
    let back = parse(&text).expect("exporter output is valid JSON");
    let records = back.as_arr().expect("trace-event array");
    let count = |ph: &str| {
        records
            .iter()
            .filter(|r| r.get("ph").and_then(Json::as_str) == Some(ph))
            .count()
    };
    assert_eq!(count("B"), 2);
    assert_eq!(count("B"), count("E"), "B/E records balance");
    assert_eq!(count("i"), 1);
    let instant = records
        .iter()
        .find(|r| r.get("ph").and_then(Json::as_str) == Some("i"))
        .expect("instant record");
    assert_eq!(
        instant.get("name").and_then(Json::as_str),
        Some("decompose.choice")
    );
    let args = instant.get("args").expect("instant args");
    assert_eq!(
        args.get("msg").and_then(Json::as_str),
        Some(nasty),
        "escaped string round-trips"
    );
    assert_eq!(args.get("candidates").and_then(Json::as_u64), Some(3));
    assert_eq!(args.get("node_delta").and_then(Json::as_f64), Some(-2.0));
}

/// A live span tree folds to exactly one line per leaf, each carrying
/// the full `prefix;path;leaf` stack.
#[test]
fn folded_stacks_emit_one_line_per_live_leaf() {
    bds_trace::reset();
    {
        let _flow = bds_trace::span_enter("flow");
        {
            let _build = bds_trace::span_enter("build");
        }
        {
            let _dec = bds_trace::span_enter("decompose");
            {
                let _s = bds_trace::span_enter("shannon");
            }
            {
                let _x = bds_trace::span_enter("xdom");
            }
        }
    }
    let snap = bds_trace::take_snapshot();
    let folded = folded_stacks(&snap, "c17");
    let lines: Vec<&str> = folded.lines().collect();
    assert_eq!(lines.len(), 3, "leaves: build, shannon, xdom");
    assert!(lines.iter().all(|l| l.starts_with("c17;flow;")));
    assert!(lines
        .iter()
        .any(|l| l.starts_with("c17;flow;decompose;shannon ")));
    for line in &lines {
        let (_, value) = line.rsplit_once(' ').expect("stack value separator");
        value.parse::<u64>().expect("value is integer nanoseconds");
    }
}

/// Real span guards drained through `Capture::take` export balanced
/// streams too (not just hand-built journals).
#[test]
fn span_guards_produce_balanced_perfetto_stream() {
    bds_trace::reset();
    {
        let _outer = bds_trace::span_enter("outer");
        let _inner = bds_trace::span_enter("inner");
    }
    let journal = Capture::take().journal;
    // Guards always feed the journal (the machinery is not gated), so
    // two enters and two exits must have been recorded.
    assert_eq!(journal.events.len(), 4);
    let doc = perfetto_trace(&journal);
    let records = doc.as_arr().expect("array");
    let count = |ph: &str| {
        records
            .iter()
            .filter(|r| r.get("ph").and_then(Json::as_str) == Some(ph))
            .count()
    };
    assert_eq!(count("B"), 2);
    assert_eq!(count("E"), 2);
}
