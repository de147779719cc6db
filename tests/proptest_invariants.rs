//! Property-based tests of the core invariants, using random function
//! and network generators driven by the deterministic `bds-prop` harness.
//!
//! Beyond the semantic contracts (restrict, ISOP, reorder, transfer,
//! decompose, factor, sweep, BLIF), this suite exercises the structural
//! auditors: random operation sequences are applied to [`Manager`]s and
//! [`Network`]s with `check_invariants` called after every step, so any
//! canonical-form or DAG-consistency regression fails with a replayable
//! case seed.

use bds_prop::{check_cases, Rng};

use bds_repro::bdd::{reorder, transfer, Edge, Manager, Var};
use bds_repro::core::decompose::{DecomposeParams, Decomposer};
use bds_repro::core::factor_tree::FactorForest;
use bds_repro::network::verify::{verify, Verdict};
use bds_repro::network::{blif, EliminateParams, Network, NetworkError, SignalId};
use bds_repro::sop::{factor::factor, Cover, Cube};

const NVARS: usize = 5;
const CASES: u32 = 64;

/// A random Boolean expression encoded as a sequence of (op, var, phase)
/// instructions folded left-to-right.
fn random_program(rng: &mut Rng) -> Vec<(u8, u8, bool)> {
    let len = rng.range_usize(1..12);
    (0..len)
        .map(|_| {
            (
                rng.range_u32(0..4) as u8,
                rng.range_u32(0..NVARS as u32) as u8,
                rng.bool(),
            )
        })
        .collect()
}

fn build_bdd(m: &mut Manager, vars: &[Var], prog: &[(u8, u8, bool)]) -> Edge {
    let mut acc = Edge::ZERO;
    for &(op, v, phase) in prog {
        let lit = m.literal(vars[v as usize], phase);
        acc = match op {
            0 => m.and(acc, lit).expect("unlimited"),
            1 => m.or(acc, lit).expect("unlimited"),
            2 => m.xor(acc, lit).expect("unlimited"),
            _ => m.ite(lit, acc, lit.complement()).expect("unlimited"),
        };
    }
    acc
}

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..1u32 << NVARS).map(|bits| (0..NVARS).map(|i| bits >> i & 1 == 1).collect())
}

/// restrict contract: restrict(f, c) · c == f · c.
#[test]
fn restrict_contract() {
    check_cases("restrict contract", CASES, |rng| {
        let fp = random_program(rng);
        let cp = random_program(rng);
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let f = build_bdd(&mut m, &vars, &fp);
        let c = build_bdd(&mut m, &vars, &cp);
        let r = m.restrict(f, c).expect("unlimited");
        let rc = m.and(r, c).expect("unlimited");
        let fc = m.and(f, c).expect("unlimited");
        assert_eq!(rc, fc);
    });
}

/// ISOP exactness: isop(f, f) rebuilds f.
#[test]
fn isop_exact() {
    check_cases("isop exact", CASES, |rng| {
        let fp = random_program(rng);
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let f = build_bdd(&mut m, &vars, &fp);
        let (cubes, cover) = m.isop(f, f).expect("unlimited");
        assert_eq!(cover, f);
        let rebuilt = m.sum_of_cubes(&cubes).expect("unlimited");
        assert_eq!(rebuilt, f);
    });
}

/// Reordering by sifting preserves the function pointwise, and the
/// reordered manager passes the full structural audit.
#[test]
fn sift_preserves_function() {
    check_cases("sift preserves function", CASES, |rng| {
        let fp = random_program(rng);
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let f = build_bdd(&mut m, &vars, &fp);
        let (m2, roots) =
            reorder::sift(&m, &[f], reorder::SiftLimits::default()).expect("unlimited");
        m2.check_invariants().expect("sifted manager is canonical");
        for assign in assignments() {
            assert_eq!(m.eval(f, &assign), m2.eval(roots[0], &assign));
        }
    });
}

/// Cross-manager transfer under the identity map preserves semantics and
/// canonical form in the destination.
#[test]
fn transfer_preserves_function() {
    check_cases("transfer preserves function", CASES, |rng| {
        let fp = random_program(rng);
        let mut src = Manager::new();
        let vars = src.new_vars(NVARS);
        let f = build_bdd(&mut src, &vars, &fp);
        let mut dst = Manager::new();
        let dvars = dst.new_vars(NVARS);
        let g = transfer::transfer(&src, &mut dst, f, &dvars).expect("unlimited");
        dst.check_invariants()
            .expect("transfer target is canonical");
        for assign in assignments() {
            assert_eq!(src.eval(f, &assign), dst.eval(g, &assign));
        }
    });
}

/// Random apply/ite/cofactor/restrict sequences keep the manager in
/// canonical form after every single step — the unique table stays
/// duplicate-free, then-edges regular, levels ordered, caches in-arena.
#[test]
fn manager_survives_random_op_sequences() {
    check_cases("manager op-sequence audit", CASES, |rng| {
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let mut pool: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
        pool.push(Edge::ZERO);
        pool.push(Edge::ONE);
        let steps = rng.range_usize(4..24);
        for _ in 0..steps {
            let f = *rng.choose(&pool);
            let g = *rng.choose(&pool);
            let h = *rng.choose(&pool);
            let var = vars[rng.range_usize(0..vars.len())];
            let produced = match rng.range_u32(0..7) {
                0 => m.and(f, g),
                1 => m.or(f, g),
                2 => m.xor(f, g),
                3 => m.ite(f, g, h),
                4 => m.cofactor(f, var, rng.bool()),
                5 => m.restrict(f, g),
                _ => Ok(f.complement()),
            };
            let e = produced.expect("node limit is unbounded in this test");
            pool.push(e);
            m.check_invariants()
                .expect("manager stays canonical after every op");
        }
        // Finish the sequence the way the flow does: sift, then transfer
        // into a fresh manager; both results must also audit clean.
        let roots: Vec<Edge> = pool.iter().copied().filter(|e| !e.is_const()).collect();
        if roots.is_empty() {
            return;
        }
        let (m2, moved) =
            reorder::sift(&m, &roots, reorder::SiftLimits::default()).expect("unlimited");
        m2.check_invariants().expect("sifted manager is canonical");
        let mut dst = Manager::new();
        let dvars = dst.new_vars(NVARS);
        let g = transfer::transfer(&m2, &mut dst, moved[0], &dvars).expect("unlimited");
        dst.check_invariants()
            .expect("transfer target is canonical");
        for assign in assignments() {
            assert_eq!(m2.eval(moved[0], &assign), dst.eval(g, &assign));
        }
    });
}

/// Decomposition soundness: the factoring tree is pointwise equal to the
/// BDD it came from, for any function and either method priority.
#[test]
fn decompose_sound() {
    check_cases("decompose sound", CASES, |rng| {
        let fp = random_program(rng);
        let balance = rng.bool();
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let f = build_bdd(&mut m, &vars, &fp);
        let mut forest = FactorForest::new();
        let mut dec = Decomposer::new();
        let params = DecomposeParams {
            balance_dominators: balance,
            ..Default::default()
        };
        let root = dec
            .decompose(&mut m, f, &mut forest, &params)
            .expect("unlimited");
        m.check_invariants()
            .expect("decomposition leaves the manager canonical");
        for assign in assignments() {
            assert_eq!(m.eval(f, &assign), forest.eval(root, &assign));
        }
    });
}

/// Algebraic factoring preserves the function and never increases literal
/// count.
#[test]
fn factor_sound() {
    check_cases("factor sound", CASES, |rng| {
        let ncubes = rng.range_usize(1..6);
        let cover: Cover = (0..ncubes)
            .filter_map(|_| {
                let nlits = rng.range_usize(1..4);
                Cube::new(
                    (0..nlits)
                        .map(|_| (rng.range_u32(0..NVARS as u32), rng.bool()))
                        .collect(),
                )
            })
            .collect();
        if cover.is_empty() {
            return;
        }
        let e = factor(&cover);
        for assign in assignments() {
            assert_eq!(e.eval(&assign), cover.eval(&assign));
        }
        assert!(e.literal_count() <= cover.literal_count());
    });
}

/// sweep preserves network behaviour on random gate networks and leaves a
/// structurally sound network behind.
#[test]
fn sweep_preserves_network() {
    check_cases("sweep preserves network", CASES, |rng| {
        let fp = random_program(rng);
        let seed = rng.next_u64();
        let net = random_net(&fp, seed);
        net.check_invariants()
            .expect("generator builds sound networks");
        let mut swept = net.clone();
        swept.sweep().expect("sweep succeeds on sound networks");
        swept.check_invariants().expect("sweep preserves soundness");
        for bits in 0..1u32 << net.inputs().len() {
            let assign: Vec<bool> = (0..net.inputs().len())
                .map(|i| bits >> i & 1 == 1)
                .collect();
            assert_eq!(net.eval(&assign).unwrap(), swept.eval(&assign).unwrap());
        }
    });
}

/// The sweep → eliminate → compact pipeline keeps the network auditable
/// at every stage and preserves its function.
#[test]
fn network_pipeline_stays_sound() {
    check_cases("network pipeline audit", CASES, |rng| {
        let fp = random_program(rng);
        let seed = rng.next_u64();
        let net = random_net(&fp, seed);
        let mut work = net.clone();
        work.sweep().expect("sweep");
        work.check_invariants().expect("after sweep");
        work.eliminate(&EliminateParams::default())
            .expect("eliminate");
        work.check_invariants().expect("after eliminate");
        let work = work.compacted().expect("compacted");
        work.check_invariants().expect("after compaction");
        assert_eq!(
            verify(&net, &work, 1_000_000).expect("verify"),
            Verdict::Equivalent,
            "pipeline must preserve the function"
        );
    });
}

/// BLIF write → parse → verify round trip is behaviour-preserving.
#[test]
fn blif_round_trip() {
    check_cases("blif round trip", CASES, |rng| {
        let fp = random_program(rng);
        let seed = rng.next_u64();
        let net = random_net(&fp, seed);
        let text = blif::write(&net);
        let parsed = blif::parse(&text).expect("own output must parse");
        parsed.check_invariants().expect("parsed network is sound");
        assert_eq!(
            verify(&net, &parsed, 1_000_000).expect("verify"),
            Verdict::Equivalent,
            "round trip must preserve the function"
        );
    });
}

/// Random `replace_node` sequences, interleaved with `add_node`, on random
/// DAGs keep the fanout index and the topological positions exact. A rewire that would close a cycle
/// (self-loops included) is rejected with `NetworkError::Cycle` and leaves
/// the network untouched; every other rewire is accepted, either through
/// the position shortcut or through the fallback search.
#[test]
fn replace_node_sequences_keep_indexes_exact() {
    let (mut rejected, mut fallbacks) = (0u64, 0u64);
    check_cases("replace_node sequences", CASES, |rng| {
        let mut net = random_dag(rng);
        let mut nodes = net.node_ids();
        let mut all: Vec<SignalId> = net.signals().collect();
        for step in 0..24 {
            let arity = rng.range_usize(1..4);
            let fanins: Vec<SignalId> = (0..arity).map(|_| *rng.choose(&all)).collect();
            let cover = random_cover(rng, arity);
            // Interleave node additions, which must extend the built index.
            if rng.range_u32(0..4) == 0 {
                let sig = net
                    .add_node(format!("m{step}"), fanins, cover)
                    .expect("unique");
                nodes.push(sig);
                all.push(sig);
                net.check_invariants().expect("indexes stay exact");
                continue;
            }
            let sig = *rng.choose(&nodes);
            let closes_cycle = fanins.iter().any(|&f| depends_on(&net, f, sig));
            let before = index_view(&net);
            let fallbacks_before = net.topo_fallbacks();
            match net.replace_node(sig, fanins.clone(), cover) {
                Err(NetworkError::Cycle { .. }) => {
                    assert!(closes_cycle, "acyclic rewire rejected");
                    assert_eq!(
                        index_view(&net),
                        before,
                        "rejected rewire changed the network"
                    );
                    rejected += 1;
                }
                Ok(()) => {
                    assert!(!closes_cycle, "cycle-closing rewire accepted");
                    assert_eq!(net.node(sig).expect("node").0, &fanins[..]);
                }
                Err(e) => panic!("unexpected rewire error: {e}"),
            }
            fallbacks += net.topo_fallbacks() - fallbacks_before;
            net.check_invariants().expect("indexes stay exact");
        }
    });
    assert!(rejected > 0, "no cycle-closing rewire was generated");
    assert!(
        fallbacks > rejected,
        "no rewire was accepted through the fallback"
    );
}

/// A BLIF file whose `.names` blocks appear in reverse topological order
/// parses through the fallback path and computes the same function as the
/// forward-order file.
#[test]
fn reverse_order_blif_parses_through_fallback() {
    check_cases("reverse-order blif", CASES, |rng| {
        let fp = random_program(rng);
        let seed = rng.next_u64();
        let text = blif::write(&random_net(&fp, seed));
        let forward = blif::parse(&text).expect("forward order parses");
        let reversed = blif::parse(&reverse_names_blocks(&text)).expect("reverse order parses");
        assert_eq!(
            forward.topo_fallbacks(),
            0,
            "forward order needs no fallback"
        );
        assert!(
            reversed.topo_fallbacks() > 0,
            "reverse order must exercise the fallback"
        );
        reversed
            .check_invariants()
            .expect("renumbered indexes are exact");
        for assign in assignments() {
            assert_eq!(
                forward.eval(&assign).expect("eval"),
                reversed.eval(&assign).expect("eval")
            );
        }
    });
}

/// Combinational loops in BLIF are still rejected with `Cycle`.
#[test]
fn cyclic_blif_rejected() {
    let two_node_loop = "\
.model loop
.inputs a
.outputs f
.names a g f
11 1
.names f g
0 1
.end
";
    let self_loop = ".model self\n.inputs a\n.outputs f\n.names a f f\n11 1\n.end\n";
    for text in [two_node_loop, self_loop] {
        assert!(
            matches!(blif::parse(text), Err(NetworkError::Cycle { .. })),
            "loop accepted: {text}"
        );
    }
}

/// The BLIF text with its `.names` blocks in reverse order.
fn reverse_names_blocks(text: &str) -> String {
    let start = text.find(".names").expect("has nodes");
    let end = text.rfind(".end").expect("has .end");
    let mut blocks: Vec<String> = Vec::new();
    for line in text[start..end].lines() {
        if line.starts_with(".names") {
            blocks.push(String::new());
        }
        let block = blocks.last_mut().expect("starts at a .names line");
        block.push_str(line);
        block.push('\n');
    }
    let mut out = text[..start].to_string();
    for block in blocks.iter().rev() {
        out.push_str(block);
    }
    out.push_str(&text[end..]);
    out
}

/// A random DAG over `NVARS` inputs: each node reads one to three earlier
/// signals through a random cover.
fn random_dag(rng: &mut Rng) -> Network {
    let mut net = Network::new("dag");
    let mut signals: Vec<SignalId> = (0..NVARS)
        .map(|i| net.add_input(format!("i{i}")).expect("unique"))
        .collect();
    for k in 0..rng.range_usize(3..10) {
        let arity = rng.range_usize(1..4);
        let fanins: Vec<SignalId> = (0..arity).map(|_| *rng.choose(&signals)).collect();
        let cover = random_cover(rng, arity);
        let sig = net
            .add_node(format!("n{k}"), fanins, cover)
            .expect("unique");
        net.mark_output(sig).expect("valid");
        signals.push(sig);
    }
    net
}

/// A random cover of one to three cubes over fanin positions `0..arity`.
fn random_cover(rng: &mut Rng, arity: usize) -> Cover {
    let cubes = (0..rng.range_usize(1..4))
        .map(|_| {
            let mut lits: Vec<(u32, bool)> = Vec::new();
            for v in 0..arity as u32 {
                if rng.bool() {
                    lits.push((v, rng.bool()));
                }
            }
            if lits.is_empty() {
                lits.push((0, rng.bool()));
            }
            Cube::new(lits).expect("distinct positions")
        })
        .collect();
    Cover::from_cubes(cubes)
}

/// True if `sig` is `from` or lies in its transitive fanin.
fn depends_on(net: &Network, from: SignalId, sig: SignalId) -> bool {
    let mut stack = vec![from];
    let mut seen = vec![false; net.signals().count()];
    while let Some(s) = stack.pop() {
        if s == sig {
            return true;
        }
        if !std::mem::replace(&mut seen[s.index()], true) {
            if let Some((fanins, _)) = net.node(s) {
                stack.extend_from_slice(fanins);
            }
        }
    }
    false
}

/// Every signal's fanins, fanout list and topological position.
fn index_view(net: &Network) -> Vec<(Option<Vec<SignalId>>, Vec<SignalId>, usize)> {
    net.signals()
        .map(|s| {
            (
                net.node(s).map(|(fanins, _)| fanins.to_vec()),
                net.fanouts_of(s).to_vec(),
                net.topo_position(s),
            )
        })
        .collect()
}

/// Builds a small network from the expression program: a chain of 2-input
/// gates mirroring `build_bdd`'s semantics.
fn random_net(prog: &[(u8, u8, bool)], seed: u64) -> Network {
    let mut net = Network::new(format!("p{seed}"));
    let inputs: Vec<_> = (0..NVARS)
        .map(|i| net.add_input(format!("i{i}")).expect("unique"))
        .collect();
    let mut acc = net.add_constant("zero", false).expect("unique");
    for (k, &(op, v, phase)) in prog.iter().enumerate() {
        let lit_in = inputs[v as usize];
        let cover = match op {
            0 => Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, phase)])]),
            1 => Cover::from_cubes(vec![Cube::lit(0, true), Cube::lit(1, phase)]),
            2 => Cover::from_cubes(vec![
                Cube::parse(&[(0, true), (1, !phase)]),
                Cube::parse(&[(0, false), (1, phase)]),
            ]),
            _ => Cover::from_cubes(vec![
                Cube::parse(&[(1, phase), (0, true)]),
                Cube::parse(&[(1, !phase), (0, false)]),
            ]),
        };
        acc = net
            .add_node(format!("n{k}"), vec![acc, lit_in], cover)
            .expect("unique");
    }
    net.mark_output(acc).expect("valid");
    net
}

// ---------------------------------------------------------------------------
// Trace registry: the mid-flight capture protocol
// ---------------------------------------------------------------------------

/// One step of a random registry workload: open a span, close the
/// innermost one, or record a counter/gauge/histogram value.
type RegistryOp = (u8, u32, u64);

fn random_registry_program(rng: &mut Rng) -> Vec<RegistryOp> {
    let len = rng.range_usize(1..24);
    (0..len)
        .map(|_| {
            (
                rng.range_u32(0..5) as u8,
                rng.next_u64() as u32,
                rng.range_u64(0..100),
            )
        })
        .collect()
}

/// Wall-clock-free projection of a snapshot: counters, gauges, histogram
/// totals, and span call counts by path, sorted. Two runs of the same
/// program agree on this even though their span timings differ. The
/// sort matters for the spans: the tree merges by `(parent, name)`, so
/// sibling *order* is insertion-dependent (a re-opened chain root lands
/// first) and deliberately outside the round-trip contract.
fn registry_view(snap: &bds_trace::Snapshot) -> Vec<(String, u64)> {
    fn spans(prefix: &str, nodes: &[bds_trace::SpanSnap], out: &mut Vec<(String, u64)>) {
        for s in nodes {
            let path = format!("{prefix};{}", s.name);
            out.push((path.clone(), s.calls));
            spans(&path, &s.children, out);
        }
    }
    let mut view: Vec<(String, u64)> = Vec::new();
    for (name, v) in &snap.counters {
        view.push((format!("counter:{name}"), *v));
    }
    for (name, v) in &snap.gauges {
        view.push((format!("gauge:{name}"), *v));
    }
    for (name, h) in &snap.histograms {
        view.push((format!("histogram:{name}"), h.count));
    }
    spans("span", &snap.spans, &mut view);
    view.sort();
    view
}

/// Runs `prog` against a fresh registry, optionally inserting a
/// `Capture::take_in_flight` → `Capture::restore` pair before step
/// `round_trip_at`, and returns the final quiescent projection.
fn run_registry_program(prog: &[RegistryOp], round_trip_at: Option<usize>) -> Vec<(String, u64)> {
    const SPANS: [&str; 4] = ["flow", "flow.build", "flow.decompose", "flow.sharing"];
    const COUNTERS: [&str; 2] = ["prop.steps", "prop.nodes"];
    const GAUGES: [&str; 2] = ["prop.peak", "prop.load"];
    bds_trace::reset();
    let mut guards = Vec::new();
    for (i, &(op, sel, val)) in prog.iter().enumerate() {
        if round_trip_at == Some(i) {
            let depth = bds_trace::span_depth();
            let capture = bds_trace::Capture::take_in_flight();
            assert_eq!(
                bds_trace::span_depth(),
                depth,
                "in-flight capture must re-open the span chain"
            );
            capture.restore();
            assert_eq!(
                bds_trace::span_depth(),
                depth,
                "restore must not disturb the open chain"
            );
        }
        let sel = sel as usize;
        match op {
            0 => guards.push(bds_trace::span_enter(SPANS[sel % SPANS.len()])),
            1 => drop(guards.pop()),
            2 => bds_trace::add_counter(COUNTERS[sel % COUNTERS.len()], val),
            3 => bds_trace::set_gauge(GAUGES[sel % GAUGES.len()], val),
            _ => bds_trace::record_histogram("prop.latency", val),
        }
    }
    drop(guards);
    let capture = bds_trace::Capture::take();
    let mut view = registry_view(&capture.snapshot);
    // The journal is part of the capture too: its span boundaries must
    // come back in recording order.
    for (i, e) in capture.journal.events.iter().enumerate() {
        view.push((format!("journal:{i:04}:{:?}:{}", e.kind, e.name), 0));
    }
    view
}

/// The mid-flight capture protocol round-trips the registry:
/// `Capture::take_in_flight` immediately followed by `Capture::restore`
/// is a no-op — same counters, gauges, histogram counts, span call tree
/// and open-span depth — wherever the pair lands inside a random
/// span-nesting workload. This is the invariant the quarantined flow
/// leans on when it rolls a poisoned capture window back.
#[test]
fn in_flight_capture_then_restore_is_identity() {
    check_cases("in-flight capture round-trip", CASES, |rng| {
        let prog = random_registry_program(rng);
        let at = rng.range_usize(0..prog.len().max(1));
        let expected = run_registry_program(&prog, None);
        let actual = run_registry_program(&prog, Some(at));
        assert_eq!(
            actual, expected,
            "round-trip at step {at} changed the registry"
        );
    });
}
