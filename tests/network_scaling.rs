//! Scaling contract of the network layer: the incremental fanout index
//! and topological positions keep `sweep`, `eliminate` and the flow's
//! network rewrites linear in circuit size.
//!
//! Work is counted, never timed: [`Network::index_work`] tallies the
//! fanout-list entries inserted or removed plus the signals visited by
//! fallback cycle searches and renumberings, and it is deterministic. For
//! each circuit family the work per input node must stay within 1.5× from
//! the smallest size to the largest, and no rewrite may take the fallback.

use std::collections::HashMap;

use bds_repro::circuits::adder::ripple_adder;
use bds_repro::circuits::multiplier::multiplier;
use bds_repro::core::flow::{optimize, FlowParams};
use bds_repro::network::{blif, EliminateParams, Network, SignalId};
use bds_repro::sop::{Cover, Cube};

/// Work per input node of each network pass on `net`.
#[derive(Debug)]
struct PassWork {
    /// Sweeping the buffered copy.
    sweep: f64,
    /// `eliminate` followed by `sweep`, as the flow runs them.
    eliminate: f64,
    /// Building, sweeping and compacting the network `optimize` returns.
    optimize: f64,
}

/// A copy of `net` in which every node drives its fanouts through a
/// buffer, the shape the flow's alias buffers give its output networks.
fn buffered(net: &Network) -> Network {
    let mut out = Network::new(net.name());
    let mut map: HashMap<SignalId, SignalId> = HashMap::new();
    for &i in net.inputs() {
        map.insert(i, out.add_input(net.signal_name(i)).expect("unique"));
    }
    for sig in net.topo_order() {
        let Some((fanins, cover)) = net.node(sig) else {
            continue;
        };
        let fanins = fanins.iter().map(|f| map[f]).collect();
        let node = out
            .add_node(net.signal_name(sig), fanins, cover.clone())
            .expect("unique");
        let buf_name = format!("{}_buf", net.signal_name(sig));
        let buf = out
            .add_node(
                buf_name,
                vec![node],
                Cover::from_cubes(vec![Cube::lit(0, true)]),
            )
            .expect("unique");
        map.insert(sig, buf);
    }
    for &o in net.outputs() {
        out.mark_output(map[&o]).expect("known");
    }
    out
}

fn pass_work(net: &Network) -> PassWork {
    let nodes = net.node_count() as f64;
    let per_node = |work: u64| work as f64 / nodes;

    // A file in topological order parses without any index work.
    let parsed = blif::parse(&blif::write(net)).expect("own output parses");
    assert_eq!(
        parsed.index_work(),
        0,
        "{}: parse fell back or did index work",
        net.name()
    );

    let mut swept = buffered(net);
    swept.sweep().expect("sweep");
    assert_eq!(swept.topo_fallbacks(), 0, "{}: sweep fell back", net.name());

    let mut collapsed = net.clone();
    collapsed
        .eliminate(&EliminateParams::default())
        .expect("eliminate");
    collapsed.sweep().expect("sweep");
    assert_eq!(
        collapsed.topo_fallbacks(),
        0,
        "{}: eliminate fell back",
        net.name()
    );

    let params = FlowParams {
        jobs: 1,
        ..FlowParams::default()
    };
    let (out, _) = optimize(net, &params).expect("flow");
    assert_eq!(
        out.topo_fallbacks(),
        0,
        "{}: flow output fell back",
        net.name()
    );

    PassWork {
        sweep: per_node(swept.index_work()),
        eliminate: per_node(collapsed.index_work() - net.index_work()),
        optimize: per_node(out.index_work()),
    }
}

fn assert_linear(family: &str, nets: &[Network]) {
    let works: Vec<PassWork> = nets.iter().map(pass_work).collect();
    let ratio = |get: fn(&PassWork) -> f64| get(&works[works.len() - 1]) / get(&works[0]);
    let ratios = [
        ("sweep", ratio(|w| w.sweep)),
        ("eliminate", ratio(|w| w.eliminate)),
        ("optimize", ratio(|w| w.optimize)),
    ];
    for (pass, r) in ratios {
        assert!(
            r <= 1.5,
            "{family}: {pass} work per node grew {r:.2}x from the smallest size to the \
             largest: {works:?}"
        );
    }
}

#[test]
fn ripple_adder_work_is_linear() {
    let nets: Vec<Network> = [32, 64, 128].into_iter().map(ripple_adder).collect();
    assert_linear("ripple_adder", &nets);
}

#[test]
fn multiplier_work_is_linear() {
    let nets: Vec<Network> = [4, 8, 16].into_iter().map(|n| multiplier(n, n)).collect();
    assert_linear("multiplier", &nets);
}
