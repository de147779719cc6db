//! The traced run: replays [`optimize`](bds::flow::optimize)'s public
//! steps from outside and times each call, so the per-layer numbers need
//! no stopwatches inside the program and no `trace` build.
//!
//! The replay takes the same decisions as `optimize` (global fast path,
//! the two partitioned candidates, selection by mapped area) and must
//! write byte-identical BLIF; the caller checks that. Two extra calls per
//! BDD phase time the `bds-bdd` layer on its own: the global build with
//! its sift, and the local build with its sift of every supernode the
//! partitioned candidates decompose. They are outside the replayed
//! `optimize` steps, so they count in `trace.overhead_s`, not in
//! `core.other_s`.

use std::collections::BTreeMap;

use bds::flow::{optimize_global, optimize_partitioned, FlowParams, FlowReport, GcPolicy};
use bds::sis_flow::{script_rugged, SisParams};
use bds_bdd::reorder::sift;
use bds_bdd::{Edge, Manager};
use bds_map::{map_network, Library};
use bds_network::verify::{verify, Verdict};
use bds_network::{blif, Network, NetworkError};
use bds_trace::Stopwatch;

use crate::{simulate, Circuit, Proof, VERIFY_NODE_LIMIT};

/// Raw measures of one circuit (or a sum over circuits): seconds under
/// keys without a unit suffix, plus counts, and peaks under keys ending
/// in `_peak`. [`derive`] turns them into the reported metrics.
pub type Raw = BTreeMap<&'static str, f64>;

fn add(raw: &mut Raw, key: &'static str, value: f64) {
    *raw.entry(key).or_insert(0.0) += value;
}

fn timed<T>(raw: &mut Raw, key: &'static str, f: impl FnOnce() -> T) -> T {
    let clock = Stopwatch::start();
    let out = f();
    add(raw, key, clock.seconds());
    out
}

fn flow_err(e: NetworkError) -> String {
    format!("flow: {e}")
}

/// One circuit through the traced replay.
#[derive(Debug)]
pub struct Replayed {
    /// The network parsed from the input BLIF.
    pub original: Network,
    /// The network the replay selected.
    pub output: Network,
    /// BLIF text of `output`.
    pub blif: String,
    /// Its raw measures.
    pub raw: Raw,
}

/// Parse → replayed `optimize` → write, every step timed.
///
/// # Errors
/// A parse or flow error, as text.
pub fn replay(circuit: &Circuit, params: &FlowParams) -> Result<Replayed, String> {
    let mut raw = Raw::new();
    let pass = Stopwatch::start();
    let original = timed(&mut raw, "blif.parse", || blif::parse(&circuit.blif))
        .map_err(|e| format!("parse: {e}"))?;
    let output = replay_optimize(&original, params, &mut raw)?;
    let text = timed(&mut raw, "blif.write", || blif::write(&output));
    add(&mut raw, "pass.traced", pass.seconds());
    Ok(Replayed {
        original,
        output,
        blif: text,
        raw,
    })
}

/// `optimize` step by step, with the `sdc` option off as in
/// [`crate::bench_params`].
fn replay_optimize(net: &Network, params: &FlowParams, raw: &mut Raw) -> Result<Network, String> {
    let lib = Library::mcnc();
    let area = |raw: &mut Raw, n: &Network| {
        timed(raw, "map.candidates", || {
            map_network(n, &lib).map_or(f64::INFINITY, |m| m.area)
        })
    };
    let (work, swept) = timed(raw, "net.sweep", || {
        let mut work = net.compacted()?;
        let swept = work.sweep()?;
        Ok((work, swept))
    })
    .map_err(flow_err)?;
    add(raw, "net.nodes_swept", swept as f64);
    let base_literals = work.stats().literals;
    let base_area = area(raw, &work);

    let mut candidates: Vec<(Network, f64)> = Vec::new();
    if params.global_limit > 0 && work.inputs().len() <= params.global_max_inputs {
        add(raw, "bdd.global_attempts", 1.0);
        global_bdd_layers(&work, params, raw);
        match timed(raw, "core.global", || optimize_global(&work, params)) {
            Ok((out, _)) => {
                let out_area = area(raw, &out);
                if out.stats().literals <= base_literals && out_area <= base_area {
                    return Ok(out);
                }
                candidates.push((out, out_area));
            }
            Err(NetworkError::Bdd(_)) => add(raw, "bdd.global_refused", 1.0),
            Err(other) => return Err(flow_err(other)),
        }
    }

    let (collapsed, eliminated) = timed(raw, "net.eliminate", || {
        let mut collapsed = work.clone();
        let eliminated = collapsed.eliminate(&params.eliminate)?;
        collapsed.sweep()?;
        Ok((collapsed, eliminated))
    })
    .map_err(flow_err)?;
    add(raw, "net.eliminated", eliminated as f64);
    let collapsed_nodes = work.stats().nodes.saturating_sub(collapsed.stats().nodes);
    add(raw, "net.nodes_collapsed", collapsed_nodes as f64);

    for (key, input) in [
        ("core.partitioned_collapsed", &collapsed),
        ("core.partitioned_swept", &work),
    ] {
        local_bdd_layers(input, params, raw);
        let (out, _) = timed(raw, key, || optimize_partitioned(input, params)).map_err(flow_err)?;
        let out_area = area(raw, &out);
        candidates.push((out, out_area));
    }

    // Like `optimize`, keep the first candidate of least mapped area.
    candidates
        .into_iter()
        .min_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(out, _)| out)
        .ok_or_else(|| "flow: empty portfolio".to_string())
}

/// Collects a manager's dead nodes at the build→reorder boundary, as the
/// flow does, so sifting starts from the same live graph.
fn collect(mgr: &mut Manager, handles: &mut [Edge], policy: GcPolicy) {
    if !policy.enabled || mgr.arena_size() < policy.min_nodes {
        return;
    }
    for &e in handles.iter() {
        mgr.add_root(e);
    }
    mgr.collect_garbage(handles);
    for &e in handles.iter() {
        mgr.release_root(e);
    }
}

/// Times sifting `handles` and records the shared size before and after.
fn timed_sift(mgr: &Manager, handles: &[Edge], params: &FlowParams, raw: &mut Raw) {
    let before = mgr.count_nodes(handles);
    if let Ok((sifted, roots)) = timed(raw, "bdd.sift", || sift(mgr, handles, params.sift)) {
        add(raw, "bdd.sift_before", before as f64);
        add(raw, "bdd.sift_after", sifted.count_nodes(&roots) as f64);
    }
}

/// The BDD work inside `optimize_global`: the global build (refused past
/// the node limit or the blow-up guard) and its sift.
fn global_bdd_layers(work: &Network, params: &FlowParams, raw: &mut Raw) {
    let built = timed(raw, "bdd.global_build", || {
        work.global_bdds(params.global_limit)
    });
    let Ok((mut mgr, mut edges, _)) = built else {
        return;
    };
    let size = mgr.count_nodes(&edges);
    add(raw, "bdd.global_nodes", size as f64);
    let literals = work.stats().literals.max(1);
    if params.global_blowup_factor > 0 && size > params.global_blowup_factor * literals {
        return;
    }
    collect(&mut mgr, &mut edges, params.gc);
    timed_sift(&mgr, &edges, params, raw);
}

/// The BDD work inside `optimize_partitioned`: each supernode's local
/// build and its sift, in the flow's order.
fn local_bdd_layers(net: &Network, params: &FlowParams, raw: &mut Raw) {
    let Ok(work) = net.compacted() else {
        return;
    };
    for sig in work.topo_order() {
        if work.is_input(sig) {
            continue;
        }
        let Some((fanins, _)) = work.node(sig) else {
            continue;
        };
        let mut mgr = Manager::new();
        let vars: Vec<_> = fanins
            .iter()
            .map(|&f| mgr.new_var(work.signal_name(f)))
            .collect();
        let built = timed(raw, "bdd.local_build", || {
            work.local_bdd(sig, &mut mgr, &vars)
        });
        let Ok(edge) = built else {
            continue;
        };
        let mut handles = [edge];
        collect(&mut mgr, &mut handles, params.gc);
        timed_sift(&mgr, &handles, params, raw);
    }
}

/// Times the verdict rule of [`crate::check`] layer by layer: the BDD
/// check, and the simulation fallback when it refuses.
pub fn timed_check(original: &Network, result: &Network, raw: &mut Raw) -> Proof {
    add(raw, "verify.attempts", 1.0);
    match timed(raw, "verify.bdd", || {
        verify(original, result, VERIFY_NODE_LIMIT)
    }) {
        Ok(Verdict::Equivalent) => Proof::Bdd,
        Ok(Verdict::Inequivalent { .. }) => Proof::Fail,
        Err(_) => {
            add(raw, "verify.refused", 1.0);
            timed(raw, "verify.sim", || simulate(original, result))
        }
    }
}

/// Times mapping the final netlist.
pub fn timed_map(result: &Network, raw: &mut Raw) {
    timed(raw, "map.final", || {
        map_network(result, &Library::mcnc()).ok()
    });
}

/// Times the SIS-style `script.rugged` baseline on `original`.
pub fn timed_sis(original: &Network, raw: &mut Raw) {
    timed(raw, "sis.rugged", || {
        script_rugged(original, &SisParams::default()).ok()
    });
}

/// Records the deterministic counters of an untraced `optimize` call.
pub fn record_report(report: &FlowReport, optimize_seconds: f64, raw: &mut Raw) {
    add(raw, "core.optimize", optimize_seconds);
    add(raw, "circuits", 1.0);
    add(
        raw,
        "core.global_mode",
        f64::from(u8::from(report.mode == bds::flow::FlowMode::Global)),
    );
    add(raw, "core.degraded", report.degraded as f64);
    add(raw, "core.decompose_steps", report.decompose.steps() as f64);
    let ops = &report.bdd_ops;
    add(raw, "bdd.ite_calls", ops.ite_calls as f64);
    add(raw, "bdd.cache_hits", ops.cache_hits as f64);
    add(
        raw,
        "bdd.cache_lookups",
        (ops.cache_hits + ops.cache_misses) as f64,
    );
    add(raw, "bdd.nodes_created", ops.nodes_created as f64);
    add(raw, "bdd.bytes_peak", report.peak_arena_bytes as f64);
}

/// Unit of a seconds metric.
const S: &str = "s";

/// Every per-layer metric with its unit, in reporting order.
pub const METRICS: [(&str, &str); 31] = [
    ("blif.parse_s", S),
    ("blif.write_s", S),
    ("net.sweep_s", S),
    ("net.nodes_swept", "count"),
    ("net.eliminate_s", S),
    ("net.eliminated", "count"),
    ("net.nodes_collapsed", "count"),
    ("net.verify_bdd_s", S),
    ("net.verify_sim_s", S),
    ("net.verify_refused", "ratio"),
    ("bdd.global_build_s", S),
    ("bdd.global_nodes", "count"),
    ("bdd.global_refused", "ratio"),
    ("bdd.sift_s", S),
    ("bdd.sift_ratio", "ratio"),
    ("bdd.ite_calls", "count"),
    ("bdd.cache_hit_rate", "ratio"),
    ("bdd.nodes_created", "count"),
    ("bdd.peak_bytes", "bytes"),
    ("core.optimize_s", S),
    ("core.global_s", S),
    ("core.partitioned_collapsed_s", S),
    ("core.partitioned_swept_s", S),
    ("core.other_s", S),
    ("core.decompose_steps", "count"),
    ("core.global_accepted", "ratio"),
    ("core.degraded", "count"),
    ("map.map_network_s", S),
    ("map.candidates_s", S),
    ("sis.rugged_s", S),
    ("trace.overhead_s", S),
];

/// The replayed steps that together make up one `optimize` call.
const OPTIMIZE_STEPS: [&str; 6] = [
    "net.sweep",
    "map.candidates",
    "core.global",
    "net.eliminate",
    "core.partitioned_collapsed",
    "core.partitioned_swept",
];

/// Turns raw measures into the [`METRICS`], in order. A ratio with no
/// attempts behind it reads 0.
#[must_use]
pub fn derive(raw: &Raw) -> Vec<(&'static str, f64, &'static str)> {
    let get = |key: &str| raw.get(key).copied().unwrap_or(0.0);
    let ratio = |num: &str, den: &str| {
        let d = get(den);
        if d > 0.0 {
            get(num) / d
        } else {
            0.0
        }
    };
    let replayed: f64 = OPTIMIZE_STEPS.iter().map(|k| get(k)).sum();
    METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "blif.parse_s" => get("blif.parse"),
                "blif.write_s" => get("blif.write"),
                "net.sweep_s" => get("net.sweep"),
                "net.eliminate_s" => get("net.eliminate"),
                "net.verify_bdd_s" => get("verify.bdd"),
                "net.verify_sim_s" => get("verify.sim"),
                "net.verify_refused" => ratio("verify.refused", "verify.attempts"),
                "bdd.global_build_s" => get("bdd.global_build"),
                "bdd.global_refused" => ratio("bdd.global_refused", "bdd.global_attempts"),
                "bdd.sift_s" => get("bdd.sift"),
                "bdd.sift_ratio" => ratio("bdd.sift_after", "bdd.sift_before"),
                "bdd.cache_hit_rate" => ratio("bdd.cache_hits", "bdd.cache_lookups"),
                "bdd.peak_bytes" => get("bdd.bytes_peak"),
                "core.optimize_s" => get("core.optimize"),
                "core.global_s" => get("core.global"),
                "core.partitioned_collapsed_s" => get("core.partitioned_collapsed"),
                "core.partitioned_swept_s" => get("core.partitioned_swept"),
                "core.other_s" => get("core.optimize") - replayed,
                "core.global_accepted" => ratio("core.global_mode", "circuits"),
                "map.map_network_s" => get("map.final"),
                "map.candidates_s" => get("map.candidates"),
                "sis.rugged_s" => get("sis.rugged"),
                "trace.overhead_s" => get("pass.traced") - get("pass.untraced"),
                counter => get(counter),
            };
            (name, value, unit)
        })
        .collect()
}
