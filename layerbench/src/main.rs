//! `layerbench` — the layered BDS benchmark.
//!
//! ```text
//! layerbench --workload <table1|arith|reorder> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Set-up generates the workload's circuits and writes their BLIF. Then,
//! for `--seconds`, it repeats passes over every circuit. With `--trace 0` a pass is
//! parse → `optimize` → write (timed: `synth_s`), followed by the verdict
//! on every circuit (timed: `verify_s`). With `--trace 1`, untraced passes
//! alternate with the per-layer replay of `layerbench::layers`.
//!
//! Set-up takes milliseconds and the host's speed drifts, so it is timed
//! [`SETUP_REPS`] times before the first pass and once more after every
//! untraced pass; `setup_s` is the median of all of them.
//!
//! Human-readable lines go to standard output first; the last line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is non-zero when any circuit run failed: a flow error, an
//! inequivalent result, or BLIF that differs from the first pass's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use bds_layerbench::layers::{self, Raw};
use bds_layerbench::stats::{median, tail};
use bds_layerbench::{
    bench_params, check, peak_rss_mib, quality, setup, synthesize, table1_seeds, Circuit, Proof,
    Workload,
};
use bds_trace::Stopwatch;

/// Set-ups timed before the first pass.
const SETUP_REPS: usize = 20;
/// Passes run even when `--seconds` is already spent, so the
/// determinism check always compares two passes.
const MIN_PASSES: usize = 2;

/// Whether another pass fits in `seconds`, judging by the mean length of
/// the `passes` run so far, once `min` passes are done.
fn another_pass(clock: &Stopwatch, seconds: f64, passes: usize, min: usize) -> bool {
    passes < min || clock.seconds() * (passes + 1) as f64 / passes as f64 <= seconds
}

struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: layerbench --workload <table1|arith|reorder> [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    // Timings are only meaningful without the live instrumentation.
    if bds_trace::is_enabled() {
        eprintln!("error: built with the `trace` feature; rebuild without it");
        return ExitCode::from(2);
    }
    let result = run(&args);
    println!("{}", result.json());
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One metric value with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run reports.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// Tracks failures per circuit run and the first pass's BLIF per circuit.
struct Ledger {
    reference: Vec<Option<String>>,
    attempted: usize,
    failed: usize,
}

impl Ledger {
    fn new(circuits: usize) -> Self {
        Ledger {
            reference: vec![None; circuits],
            attempted: 0,
            failed: 0,
        }
    }

    /// Records one circuit run: its BLIF (or the error that prevented it)
    /// and whether its check refuted equivalence. BLIF must match the
    /// first run's byte for byte. Returns whether the run passed.
    fn record(
        &mut self,
        name: &str,
        index: usize,
        blif: Result<&str, &str>,
        refuted: bool,
    ) -> bool {
        self.attempted += 1;
        let problem = match blif {
            Err(e) => Some(e.to_string()),
            Ok(_) if refuted => Some("not equivalent to its input".to_string()),
            Ok(text) => match &self.reference[index] {
                None => {
                    self.reference[index] = Some(text.to_string());
                    None
                }
                Some(first) if first != text => Some("BLIF differs from its first run".to_string()),
                Some(_) => None,
            },
        };
        match problem {
            Some(problem) => {
                self.fail(name, &problem);
                false
            }
            None => true,
        }
    }

    /// Marks a recorded run as failed after all.
    fn fail(&mut self, name: &str, problem: &str) {
        self.failed += 1;
        eprintln!("FAILED {name}: {problem}");
    }
}

fn run(args: &Args) -> Outcome {
    let mut setup_times = Vec::new();
    let mut circuits = Vec::new();
    for _ in 0..SETUP_REPS {
        let (fresh, seconds) = timed_setup(args);
        circuits = fresh;
        setup_times.push(seconds);
    }
    let params = bench_params();
    println!(
        "layerbench workload={} seed={} table1_seeds={:?} jobs={} trace_feature={} cores={}",
        args.workload.name(),
        args.seed.map_or("default".to_string(), |s| s.to_string()),
        table1_seeds(args.seed),
        params.jobs,
        bds_trace::is_enabled(),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    if args.trace {
        traced_run(args, &circuits, &params)
    } else {
        untraced_run(args, &circuits, &params, setup_times)
    }
}

/// Generates the workload's circuits and times it.
fn timed_setup(args: &Args) -> (Vec<Circuit>, f64) {
    let clock = Stopwatch::start();
    let circuits = setup(args.workload, args.seed);
    (circuits, clock.seconds())
}

/// Per-circuit results that repeat exactly from pass to pass.
struct CircuitResult {
    gates: usize,
    area: f64,
    delay: f64,
    peak_bdd_bytes: usize,
    proof: Proof,
}

fn untraced_run(
    args: &Args,
    circuits: &[Circuit],
    params: &bds::flow::FlowParams,
    mut setup_times: Vec<f64>,
) -> Outcome {
    let mut ledger = Ledger::new(circuits.len());
    let mut results: Vec<Option<CircuitResult>> = circuits.iter().map(|_| None).collect();
    let mut synth_times = Vec::new();
    let mut verify_times = Vec::new();
    let mut per_circuit: Vec<Vec<f64>> = vec![Vec::new(); circuits.len()];
    let clock = Stopwatch::start();
    while another_pass(&clock, args.seconds, synth_times.len(), MIN_PASSES) {
        let pass = Stopwatch::start();
        let outs: Vec<_> = circuits
            .iter()
            .zip(&mut per_circuit)
            .map(|(c, times)| {
                let one = Stopwatch::start();
                let out = synthesize(c, params);
                times.push(one.seconds());
                out
            })
            .collect();
        synth_times.push(pass.seconds());

        let verify = Stopwatch::start();
        let proofs: Vec<Proof> = outs
            .iter()
            .map(|o| {
                o.as_ref()
                    .map_or(Proof::Fail, |s| check(&s.original, &s.output))
            })
            .collect();
        verify_times.push(verify.seconds());
        setup_times.push(timed_setup(args).1);

        for (i, (out, proof)) in outs.iter().zip(proofs).enumerate() {
            let name = &circuits[i].name;
            let blif = out
                .as_ref()
                .map(|s| s.blif.as_str())
                .map_err(String::as_str);
            let passed = ledger.record(name, i, blif, proof == Proof::Fail);
            if let (true, Ok(s), None) = (passed, out, &results[i]) {
                match quality(&s.output) {
                    Ok(q) => {
                        results[i] = Some(CircuitResult {
                            gates: q.gates,
                            area: q.area,
                            delay: q.delay,
                            peak_bdd_bytes: s.report.peak_arena_bytes,
                            proof,
                        });
                    }
                    Err(e) => ledger.fail(name, &e),
                }
            }
        }
    }

    println!(
        "{:<10} {:>6} {:>10} {:>8} {:>14} {:>6} {:>10}",
        "circuit", "gates", "area", "delay", "peak_bdd_bytes", "proof", "synth_s"
    );
    for ((c, r), times) in circuits.iter().zip(&results).zip(&per_circuit) {
        if let Some(r) = r {
            println!(
                "{:<10} {:>6} {:>10.1} {:>8.2} {:>14} {:>6} {:>10.5}",
                c.name,
                r.gates,
                r.area,
                r.delay,
                r.peak_bdd_bytes,
                format!("{:?}", r.proof).to_lowercase(),
                median(times)
            );
        }
    }
    let ok: Vec<&CircuitResult> = results.iter().flatten().collect();
    let proved = ok.iter().filter(|r| r.proof == Proof::Bdd).count();
    let unproved = ok.iter().filter(|r| r.proof == Proof::Sim).count();
    let t = tail(&synth_times);
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("synth_s", median(&synth_times), "s"),
        metric("synth_tail_s", t.value, "s"),
        metric("verify_s", median(&verify_times), "s"),
        metric("area", ok.iter().map(|r| r.area).sum(), "area"),
        metric("gates", ok.iter().map(|r| r.gates as f64).sum(), "cells"),
        metric("delay", ok.iter().map(|r| r.delay).sum(), "delay"),
        metric("peak_rss_mb", peak_rss_mib().unwrap_or(0.0), "MiB"),
        metric("setup_s", median(&setup_times), "s"),
        metric("proved", proved as f64, "circuits"),
        metric(
            "ok_ratio",
            (ledger.attempted - ledger.failed) as f64 / ledger.attempted as f64,
            "ratio",
        ),
    ];
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "synth_s and verify_s: medians of {} passes; synth_tail_s: p{:.1} with {} passes beyond it; setup_s: median of {} set-ups",
        synth_times.len(),
        t.percentile,
        t.beyond,
        setup_times.len()
    );
    for (name, samples) in [
        ("synth_s", &synth_times),
        ("verify_s", &verify_times),
        ("setup_s", &setup_times),
    ] {
        let text: Vec<String> = samples.iter().map(f64::to_string).collect();
        println!("samples {name} {}", text.join(" "));
    }
    // Reported, not gated: on `table1` the largest BDD is often a
    // random-logic instance, so the maximum swings with the seed.
    println!(
        "peak_bdd_bytes {} bytes",
        ok.iter().map(|r| r.peak_bdd_bytes).max().unwrap_or(0)
    );
    println!("unproved {unproved} circuits (simulated only)");
    println!(
        "failed_ratio {} ratio ({} of {} circuit runs)",
        ledger.failed as f64 / ledger.attempted as f64,
        ledger.failed,
        ledger.attempted
    );
    Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
    }
}

/// Median of every key over `records`; a key missing from a record
/// counts as 0 there.
fn median_raw(records: &[Raw]) -> Raw {
    let mut columns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in records {
        for &k in r.keys() {
            columns.entry(k).or_default();
        }
    }
    for (k, col) in &mut columns {
        col.extend(records.iter().map(|r| r.get(k).copied().unwrap_or(0.0)));
    }
    columns
        .into_iter()
        .map(|(k, col)| (k, median(&col)))
        .collect()
}

/// Sums raw measures over circuits; a peak (key ending in `_peak`)
/// takes the maximum instead.
fn sum_raw(records: &[Raw]) -> Raw {
    let mut total = Raw::new();
    for r in records {
        for (&k, &v) in r {
            let t = total.entry(k).or_insert(0.0);
            *t = if k.ends_with("_peak") {
                t.max(v)
            } else {
                *t + v
            };
        }
    }
    total
}

fn traced_run(args: &Args, circuits: &[Circuit], params: &bds::flow::FlowParams) -> Outcome {
    let mut ledger = Ledger::new(circuits.len());
    // [pass][circuit] raw measures.
    let mut passes: Vec<Vec<Raw>> = Vec::new();
    let clock = Stopwatch::start();
    while another_pass(&clock, args.seconds, passes.len(), 1) {
        let pass: Vec<Raw> = circuits
            .iter()
            .enumerate()
            .map(|(i, c)| {
                // The untraced run and its replay back to back, so both
                // see the same host load.
                let mut raw = Raw::new();
                let one = Stopwatch::start();
                match synthesize(c, params) {
                    Ok(s) => {
                        raw.insert("pass.untraced", one.seconds());
                        layers::record_report(&s.report, s.optimize_seconds, &mut raw);
                        // Checked through the replay, whose BLIF must
                        // match this one.
                        ledger.record(&c.name, i, Ok(&s.blif), false);
                    }
                    Err(e) => {
                        ledger.record(&c.name, i, Err(&e), false);
                    }
                }
                match layers::replay(c, params) {
                    Ok(mut r) => {
                        let proof = layers::timed_check(&r.original, &r.output, &mut r.raw);
                        layers::timed_map(&r.output, &mut r.raw);
                        if args.workload.runs_sis() {
                            layers::timed_sis(&r.original, &mut r.raw);
                        }
                        ledger.record(&c.name, i, Ok(&r.blif), proof == Proof::Fail);
                        raw.extend(r.raw);
                    }
                    Err(e) => {
                        ledger.record(&c.name, i, Err(&e), false);
                    }
                }
                raw
            })
            .collect();
        passes.push(pass);
    }

    for (i, c) in circuits.iter().enumerate() {
        let column: Vec<Raw> = passes.iter().map(|p| p[i].clone()).collect();
        let raw = median_raw(&column);
        for (name, value, unit) in layers::derive(&raw) {
            println!("layer {} {} {} {}", c.name, name, value, unit);
        }
    }
    let totals: Vec<Raw> = passes.iter().map(|p| sum_raw(p)).collect();
    let raw = median_raw(&totals);
    let metrics: Vec<Metric> = layers::derive(&raw)
        .into_iter()
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect();
    for m in &metrics {
        println!(
            "layer {} {} {} {}",
            args.workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    println!(
        "per-layer values: medians of {} passes, each untraced then traced{}",
        passes.len(),
        if args.workload.runs_sis() {
            ""
        } else {
            "; sis.rugged_s not run on this workload"
        }
    );
    Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
    }
}
