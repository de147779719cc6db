//! The benchmark drives the same flow as the paper-table harness: on
//! `table1`'s circuits, each result's mapped gates and area equal those
//! `bds_bench::harness::run_both` computes live from the generated
//! network with default parameters, although the benchmark only ever
//! sees the BLIF text and pins its own parameters.

use bds::flow::FlowParams;
use bds::sis_flow::SisParams;
use bds_bench::harness::run_both;
use bds_layerbench::{bench_params, networks, quality, setup, synthesize, Workload};

#[test]
fn table1_gates_and_area_match_the_paper_harness() {
    let params = bench_params();
    let generated = networks(Workload::Table1, None);
    let circuits = setup(Workload::Table1, None);
    assert_eq!(generated.len(), 12);
    for ((name, net), circuit) in generated.iter().zip(&circuits) {
        assert_eq!(name, &circuit.name);
        let row = run_both(
            name.clone(),
            "-",
            net,
            &FlowParams::default(),
            &SisParams::default(),
        );
        let synth = synthesize(circuit, &params).expect("benchmark flow");
        let q = quality(&synth.output).expect("mapping");
        assert_eq!(q.gates, row.bds.gates, "{name}: gates");
        assert_eq!(q.area, row.bds.area, "{name}: area");
    }
}

#[test]
fn default_seed_is_table_one() {
    assert_eq!(bds_layerbench::table1_seeds(None), [42, 7, 13]);
    assert_ne!(bds_layerbench::table1_seeds(Some(1)), [42, 7, 13]);
    assert_eq!(
        bds_layerbench::table1_seeds(Some(9)),
        bds_layerbench::table1_seeds(Some(9))
    );
}
