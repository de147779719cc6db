//! Layered benchmark of the BDS flow.
//!
//! A workload is a fixed list of circuits built by `bds-circuits`
//! generators. Set-up writes each one to BLIF text; from then on the flow
//! sees only that text, exactly as `bds_opt` does: `blif::parse` →
//! [`optimize`] → `blif::write`. Every result is mapped with the mcnc-style
//! library and checked for equivalence against the parsed input with the
//! same rule as the paper-table harness (`bds_bench::harness`).
//!
//! [`layers`] replays `optimize`'s public steps from outside and times
//! each call, for the per-layer breakdown.

pub mod layers;
pub mod stats;

use bds::flow::{optimize, FlowParams, FlowReport};
use bds_circuits::adder::{carry_select_adder, ripple_adder};
use bds_circuits::alu::alu;
use bds_circuits::comparator::comparator;
use bds_circuits::ecc::hamming_encoder;
use bds_circuits::multiplier::multiplier;
use bds_circuits::parity::parity_tree;
use bds_circuits::random_logic::{random_logic, RandomLogicParams};
use bds_circuits::shifter::barrel_shifter;
use bds_map::{map_network, Library};
use bds_network::verify::{verify, verify_by_simulation, Verdict};
use bds_network::{blif, Network};
use bds_trace::Stopwatch;

/// Node limit of the BDD equivalence check (as in the paper-table harness).
pub const VERIFY_NODE_LIMIT: usize = 2_000_000;
/// Random vectors of the simulation fallback when BDD verify refuses.
pub const SIM_ROUNDS: usize = 512;
/// Seed of the simulation fallback.
pub const SIM_SEED: u64 = 0xB5D5;
/// Table I's random-logic seeds, used when no workload seed is given.
pub const TABLE1_SEEDS: [u64; 3] = [42, 7, 13];

/// One set of circuits the benchmark runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The twelve Table I stand-ins at full size: small mixed circuits,
    /// 4 global and 8 partitioned.
    Table1,
    /// The Table II scale points `m16x16`, `bshift128`, `adder128`: large
    /// and partitioned, dominated by the network layer.
    Arith,
    /// `bshift16` and `bshift32`: global path, dominated by sifting.
    Reorder,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Table1, Workload::Arith, Workload::Reorder];

    /// Looks a workload up by its command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::Arith => "arith",
            Workload::Reorder => "reorder",
        }
    }

    /// Whether the traced run also times the SIS-style baseline here.
    /// On `arith` the baseline alone would take about 40 s.
    #[must_use]
    pub fn runs_sis(self) -> bool {
        self != Workload::Arith
    }
}

/// The three random-logic seeds of `table1` for a workload seed: Table I's
/// own seeds when none is given, else three splitmix64 draws from it.
#[must_use]
pub fn table1_seeds(seed: Option<u64>) -> [u64; 3] {
    let Some(seed) = seed else {
        return TABLE1_SEEDS;
    };
    let mut state = seed;
    [0; 3].map(|_| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

/// The circuits of `workload`, by name. `seed` only affects `table1`.
#[must_use]
pub fn networks(workload: Workload, seed: Option<u64>) -> Vec<(String, Network)> {
    match workload {
        Workload::Table1 => {
            // Sizes as in the full (non-fast) Table I run.
            let [s0, s1, s2] = table1_seeds(seed);
            let rl = |inputs, outputs, nodes, seed| {
                random_logic(
                    &RandomLogicParams {
                        inputs,
                        outputs,
                        nodes,
                        ..Default::default()
                    },
                    seed,
                )
            };
            vec![
                ("ctrl36".into(), rl(36, 7, 120, s0)),
                ("ecc32".into(), hamming_encoder(32)),
                ("ecc26".into(), hamming_encoder(26)),
                ("alu8".into(), alu(8)),
                ("alu16".into(), alu(16)),
                ("csel16".into(), carry_select_adder(16, 4)),
                ("cmp16".into(), comparator(16)),
                ("mult8".into(), multiplier(8, 8)),
                ("ctrl20".into(), rl(20, 12, 100, s1)),
                ("ctrl24".into(), rl(24, 16, 120, s2)),
                ("shift32".into(), barrel_shifter(32)),
                ("parity16".into(), parity_tree(16)),
            ]
        }
        Workload::Arith => vec![
            ("m16x16".into(), multiplier(16, 16)),
            ("bshift128".into(), barrel_shifter(128)),
            ("adder128".into(), ripple_adder(128)),
        ],
        Workload::Reorder => vec![
            ("bshift16".into(), barrel_shifter(16)),
            ("bshift32".into(), barrel_shifter(32)),
        ],
    }
}

/// A circuit as the flow receives it: BLIF text.
#[derive(Clone, Debug)]
pub struct Circuit {
    /// Circuit label.
    pub name: String,
    /// BLIF text of the generated network.
    pub blif: String,
}

/// Set-up: generates the circuits of `workload` and writes their BLIF.
#[must_use]
pub fn setup(workload: Workload, seed: Option<u64>) -> Vec<Circuit> {
    networks(workload, seed)
        .into_iter()
        .map(|(name, net)| Circuit {
            name,
            blif: blif::write(&net),
        })
        .collect()
}

/// The flow parameters every run uses: defaults with one worker thread,
/// whatever `BDS_FLOW_JOBS` says.
#[must_use]
pub fn bench_params() -> FlowParams {
    FlowParams {
        jobs: 1,
        ..FlowParams::default()
    }
}

/// One circuit through the flow.
#[derive(Debug)]
pub struct Synth {
    /// The network parsed from the input BLIF.
    pub original: Network,
    /// The optimized network.
    pub output: Network,
    /// BLIF text of `output`.
    pub blif: String,
    /// The flow's own report.
    pub report: FlowReport,
    /// Wall seconds of `optimize` alone.
    pub optimize_seconds: f64,
}

/// Runs one circuit the way `bds_opt` does: parse → optimize → write.
///
/// # Errors
/// A parse or flow error, as text.
pub fn synthesize(circuit: &Circuit, params: &FlowParams) -> Result<Synth, String> {
    let original = blif::parse(&circuit.blif).map_err(|e| format!("parse: {e}"))?;
    let clock = Stopwatch::start();
    let (output, report) = optimize(&original, params).map_err(|e| format!("flow: {e}"))?;
    let optimize_seconds = clock.seconds();
    let blif = blif::write(&output);
    Ok(Synth {
        original,
        output,
        blif,
        report,
        optimize_seconds,
    })
}

/// How a result was shown equivalent to its input.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Proof {
    /// Proved by the BDD equivalence check.
    Bdd,
    /// The BDD check refused (node limit); random simulation found no
    /// difference. Sampled, not proved.
    Sim,
    /// Found inequivalent, or the check itself failed.
    Fail,
}

/// The paper-table harness's verdict rule: BDD verify under
/// [`VERIFY_NODE_LIMIT`], falling back to simulation when it refuses.
#[must_use]
pub fn check(original: &Network, result: &Network) -> Proof {
    match verify(original, result, VERIFY_NODE_LIMIT) {
        Ok(Verdict::Equivalent) => Proof::Bdd,
        Ok(Verdict::Inequivalent { .. }) => Proof::Fail,
        Err(_) => simulate(original, result),
    }
}

/// The simulation fallback of [`check`].
#[must_use]
pub fn simulate(original: &Network, result: &Network) -> Proof {
    match verify_by_simulation(original, result, SIM_ROUNDS, SIM_SEED) {
        Ok(Verdict::Equivalent) => Proof::Sim,
        _ => Proof::Fail,
    }
}

/// Mapped size and speed of one network.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Quality {
    /// Mapped cell count.
    pub gates: usize,
    /// Mapped cell area (mcnc area units).
    pub area: f64,
    /// Critical-path delay of the mapped netlist.
    pub delay: f64,
}

/// Maps `net` with the mcnc-style library.
///
/// # Errors
/// A mapping error, as text.
pub fn quality(net: &Network) -> Result<Quality, String> {
    let mapped = map_network(net, &Library::mcnc()).map_err(|e| format!("map: {e}"))?;
    Ok(Quality {
        gates: mapped.gate_count,
        area: mapped.area,
        delay: mapped.delay,
    })
}

/// Peak resident set of this process (`VmHWM`) in MiB, if the platform
/// reports it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
