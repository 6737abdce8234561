//! Record/replay guarantees of the probe layer and the `ccq-replay` crate.
//!
//! Three layers of proof that checkpoints, snapshots and bisection tell
//! the truth about the engine:
//!
//! * **property tests** — for every registry protocol, under every delay
//!   policy, shard plan and admission policy, a run resumed from a
//!   mid-run [`Snapshot`] produces a report byte-identical to the
//!   uninterrupted run, and a checkpointed run's *serialized* report is
//!   byte-identical to the unprobed one (probe data rides outside the
//!   report's JSON);
//! * **executor independence** — monolith and sharded runs of every
//!   registry protocol produce identical per-round checkpoint and per-node
//!   digest streams, and the dirty-frontier round loop hashes identically
//!   to the dense reference scan (a snapshot taken on the dense scan even
//!   resumes on the frontier loop); sweep argvs with the retired
//!   `--parallel-apply` and `--wavefront` spellings hash and snapshot
//!   exactly like the argvs without them;
//! * **bisection** — a deliberately planted single-node transmit skip is
//!   localized to its exact `(round, phase, node)` by
//!   [`first_divergence`], and unperturbed runs show no divergence.

mod common;

use ccq_repro::prelude::*;
use ccq_repro::replay::{first_divergence, resume_from, snapshot_of, Snapshot, CURRENT_VERSION};
use ccq_repro::sim::SimConfig;
use common::{run_on_reference, sweep_plan};
use proptest::prelude::*;

fn delay_for(kind: u8, seed: u64) -> LinkDelay {
    match kind % 4 {
        0 => LinkDelay::Unit,
        1 => LinkDelay::Fixed { delay: 2 },
        2 => LinkDelay::PerLink { max: 3, seed },
        _ => LinkDelay::Jitter { max: 3, seed },
    }
}

fn strategy_for(kind: u8) -> ShardStrategy {
    match kind % 3 {
        0 => ShardStrategy::Contiguous,
        1 => ShardStrategy::Striped,
        _ => ShardStrategy::EdgeCut,
    }
}

fn admission_for(kind: u8) -> AdmissionSpec {
    match kind % 3 {
        0 => AdmissionSpec::Open,
        1 => AdmissionSpec::DropTail { bound: 6 },
        _ => AdmissionSpec::DelayRetry { bound: 6, backoff: 2 },
    }
}

fn report_json(out: &RunOutcome) -> String {
    serde_json::to_string(&out.report).expect("reports serialize")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole guarantee: for every registry protocol × delay policy
    /// × shard plan (a fast or a `ferry=4` inter-shard delay) × admission
    /// policy on an open arrival process, resuming from a mid-run snapshot
    /// reproduces the uninterrupted run's report byte for byte — and
    /// probing itself never changes the serialized report.
    #[test]
    fn snapshot_resume_equals_uninterrupted(
        proto_idx in 0usize..10,
        delay_kind in 0u8..4,
        k in 1usize..4,
        strategy in 0u8..3,
        slow_ferry in any::<bool>(),
        admission_kind in 0u8..3,
        seed in any::<u64>(),
    ) {
        let spec = &registry()[proto_idx];
        let delay = delay_for(delay_kind, seed);
        let mode = spec.kind().paper_mode();
        let mut shards = ShardSpec::new(k, strategy_for(strategy));
        if slow_ferry {
            shards = shards.with_inter_delay(LinkDelay::Fixed { delay: 4 });
        }
        let build = || {
            Scenario::build_with(
                TopoSpec::Torus2D { side: 3 },
                RequestPattern::All,
                ArrivalSpec::Poisson { rate: 0.4, seed },
            )
            .with_shards(shards)
            .with_admission(admission_for(admission_kind))
        };
        let plain = run_spec_with(spec, &build(), mode, delay).unwrap();

        // Probing is invisible in the serialized report: the probed run's
        // JSON is byte-identical to the unprobed one.
        let probed = run_spec_with(
            spec,
            &build().with_probe(ProbeSpec::OFF.with_checkpoint_every(1).with_node_hashes(true)),
            mode,
            delay,
        )
        .unwrap();
        prop_assert_eq!(
            report_json(&probed),
            report_json(&plain),
            "{}: probe data leaked into the serialized report",
            spec.name()
        );
        prop_assert!(!probed.report.checkpoints.is_empty());

        // Snapshot a mid-run *visited* round (checkpoint rounds are
        // exactly the rounds the engine executed, never fast-forwarded
        // past), resume, and compare bytes.
        let rounds: Vec<u64> =
            probed.report.checkpoints.iter().map(|c| c.round).collect();
        let round = rounds[rounds.len() / 2];
        let snap = snapshot_of(spec, build(), mode, delay, round).unwrap();
        let resumed = resume_from(&snap, spec, build(), mode, delay).unwrap();
        prop_assert_eq!(&resumed.order, &plain.order, "{} order diverged", spec.name());
        prop_assert_eq!(
            report_json(&resumed),
            report_json(&plain),
            "{}: resumed run not byte-identical",
            spec.name()
        );
    }
}

/// Checkpoint and node-digest streams are executor-independent: the
/// monolith and the sharded executor hash through identical states at
/// every barrier, for every registry protocol — and on a slow ferry
/// (`3:edgecut:ferry=4`, every third round observed) the sweep argv with
/// the retired `--parallel-apply` spelling hashes the same streams and
/// serializes the same JSON as the argv without it.
#[test]
fn checkpoints_are_executor_independent_for_every_registry_protocol() {
    let probe = ProbeSpec::OFF.with_checkpoint_every(1).with_node_hashes(true);
    for spec in registry() {
        let mode = spec.kind().paper_mode();
        let build = |k: usize| {
            Scenario::build(TopoSpec::Torus2D { side: 3 }, RequestPattern::All)
                .with_shards(ShardSpec::new(k, ShardStrategy::EdgeCut))
                .with_probe(probe)
        };
        let mono = run_spec_with(spec, &build(1), mode, LinkDelay::Unit).unwrap();
        assert!(!mono.report.checkpoints.is_empty(), "{}", spec.name());
        let sharded = run_spec_with(spec, &build(3), mode, LinkDelay::Unit).unwrap();
        assert_eq!(
            sharded.report.checkpoints,
            mono.report.checkpoints,
            "{}: checkpoint stream diverged from the monolith",
            spec.name()
        );
        assert_eq!(
            sharded.report.node_digests,
            mono.report.node_digests,
            "{}: node digests diverged from the monolith",
            spec.name()
        );
    }
    let argv = ["--topo", "torus2d:3", "--shards", "3:edgecut:ferry=4"];
    let probe = ["--checkpoint-every", "3", "--node-hashes"];
    let run = |extra: &[&str]| sweep_plan(&[&argv[..], &probe[..], extra].concat()).execute();
    let serialized = run(&[]);
    let retired = run(&["--parallel-apply"]);
    assert_eq!(serialized.cases.len(), registry().len());
    for (r, s) in retired.cases.iter().zip(&serialized.cases) {
        assert!(s.checkpoints.as_ref().is_some_and(|c| !c.is_empty()), "{}", s.protocol);
        assert_eq!(r.checkpoints, s.checkpoints, "{} ferry=4: checkpoints diverged", s.protocol);
        assert_eq!(r.node_digests, s.node_digests, "{} ferry=4: digests diverged", s.protocol);
    }
    assert_eq!(retired.to_json(), serialized.to_json(), "ferry=4: serialized sweep diverged");
}

/// Checkpoint and node-digest streams are also *scan-strategy*
/// independent: the dirty-frontier loop hashes through exactly the same
/// canonical states as the dense `0..n` reference scan at every barrier
/// — on the monolith and on sharded executors — so replay artifacts
/// recorded before the sparse engine stay valid after it.
#[test]
fn checkpoints_are_scan_strategy_independent_for_every_registry_protocol() {
    let probe = ProbeSpec::OFF.with_checkpoint_every(1).with_node_hashes(true);
    for spec in registry() {
        let mode = spec.kind().paper_mode();
        let build = |k: usize| {
            Scenario::build(TopoSpec::Torus2D { side: 3 }, RequestPattern::All)
                .with_shards(ShardSpec::new(k, ShardStrategy::EdgeCut))
                .with_probe(probe)
        };
        let dense =
            run_on_reference(spec, &build(1), mode, LinkDelay::Unit, |c| c.with_dense_scan(true))
                .unwrap();
        assert!(!dense.report.checkpoints.is_empty(), "{}", spec.name());
        for (label, out) in [
            ("monolith", run_spec_with(spec, &build(1), mode, LinkDelay::Unit).unwrap()),
            ("sharded", run_spec_with(spec, &build(3), mode, LinkDelay::Unit).unwrap()),
        ] {
            assert_eq!(
                out.report.checkpoints,
                dense.report.checkpoints,
                "{} {label}: frontier checkpoint stream diverged from the dense scan",
                spec.name()
            );
            assert_eq!(
                out.report.node_digests,
                dense.report.node_digests,
                "{} {label}: frontier node digests diverged from the dense scan",
                spec.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshots cross the scan-strategy boundary: a snapshot taken on
    /// the dense reference scan resumes on the frontier loop — the
    /// direction a user holding an old artifact can still meet — into a
    /// report byte-identical to the uninterrupted run: `resume_from` is
    /// hash-verified re-execution, not store deserialization, so the
    /// store layout never leaks into the artifact.
    #[test]
    fn snapshots_resume_across_scan_strategies(
        proto_idx in 0usize..10,
        delay_kind in 0u8..4,
        seed in any::<u64>(),
    ) {
        let spec = &registry()[proto_idx];
        let delay = delay_for(delay_kind, seed);
        let mode = spec.kind().paper_mode();
        let build = || {
            Scenario::build_with(
                TopoSpec::Torus2D { side: 3 },
                RequestPattern::All,
                ArrivalSpec::Poisson { rate: 0.4, seed },
            )
        };
        let dense = |scenario: Scenario| {
            run_on_reference(spec, &scenario, mode, delay, |c| c.with_dense_scan(true)).unwrap()
        };
        let plain = run_spec_with(spec, &build(), mode, delay).unwrap();
        let probed = dense(build().with_probe(ProbeSpec::OFF.with_checkpoint_every(1)));
        let rounds: Vec<u64> =
            probed.report.checkpoints.iter().map(|c| c.round).collect();
        let round = rounds[rounds.len() / 2];
        // Snapshot on the dense reference, resume on the frontier default.
        let report = dense(build().with_probe(ProbeSpec::OFF.with_snapshot_at(round))).report;
        let snap = Snapshot {
            version: CURRENT_VERSION,
            round,
            digest: report.snapshot_digest.expect("the run reaches the snapshot round"),
            state: report.snapshot_state.expect("the run reaches the snapshot round"),
        };
        let resumed = resume_from(&snap, spec, build(), mode, delay).unwrap();
        prop_assert_eq!(&resumed.order, &plain.order, "{} order diverged", spec.name());
        prop_assert_eq!(
            report_json(&resumed),
            report_json(&plain),
            "{}: cross-strategy resume not byte-identical",
            spec.name()
        );
    }
}

/// Checkpoint and node-digest streams are independent of the retired
/// `--wavefront` spelling: on a slow ferry (`3:edgecut:ferry=4`, every
/// third round observed), the sweep argv with bare `--wavefront` or with
/// `--wavefront:lag=3` hashes through the same states, and serializes the
/// same JSON, as the argv without it — for every registry protocol.
#[test]
fn checkpoints_are_wavefront_independent_for_every_registry_protocol() {
    let argv = ["--topo", "torus2d:3", "--shards", "3:edgecut:ferry=4"];
    let probe = ["--checkpoint-every", "3", "--node-hashes"];
    let run = |extra: &[&str]| sweep_plan(&[&argv[..], &probe[..], extra].concat()).execute();
    let lockstep = run(&[]);
    assert_eq!(lockstep.cases.len(), registry().len());
    for case in &lockstep.cases {
        assert!(case.ok, "{}: {:?}", case.protocol, case.error);
        assert!(case.checkpoints.as_ref().is_some_and(|c| !c.is_empty()), "{}", case.protocol);
        assert!(case.node_digests.is_some(), "{}", case.protocol);
    }
    for flag in ["--wavefront", "--wavefront:lag=3"] {
        let wave = run(&[flag]);
        assert_eq!(wave.cases.len(), lockstep.cases.len());
        for (w, l) in wave.cases.iter().zip(&lockstep.cases) {
            assert_eq!(w.checkpoints, l.checkpoints, "{} {flag}: checkpoints diverged", l.protocol);
            assert_eq!(
                w.node_digests, l.node_digests,
                "{} {flag}: node digests diverged",
                l.protocol
            );
        }
        assert_eq!(wave.to_json(), lockstep.to_json(), "{flag}: serialized sweep diverged");
    }
}

/// Snapshots cross the retired `--wavefront` spelling: a snapshot of the
/// scenario an argv with `--wavefront:lag=4` builds resumes on the scenario
/// of the same argv without it (and vice versa) into a report
/// byte-identical to the uninterrupted run.
#[test]
fn snapshots_resume_across_wavefront_and_lockstep() {
    let spec = &ccq_repro::core::protocol::Arrow;
    let (mode, delay) = (ModelMode::Expanded, LinkDelay::Unit);
    let argv = ["--topo", "torus2d:4", "--proto", "arrow", "--shards", "3:contig:ferry=5"];
    let scenario = |extra: &[&str]| {
        let cases = sweep_plan(&[&argv[..], extra].concat()).cases();
        assert_eq!(cases.len(), 1);
        assert_eq!((cases[0].mode, cases[0].delay), (mode, delay));
        cases[0].scenario()
    };
    let lockstep = || scenario(&[]);
    let wave = || scenario(&["--wavefront:lag=4"]);
    let plain = run_spec_with(spec, &lockstep(), mode, delay).unwrap();
    let probe = ProbeSpec::OFF.with_checkpoint_every(2);
    let probed = run_spec_with(spec, &wave().with_probe(probe), mode, delay).unwrap();
    let rounds: Vec<u64> = probed.report.checkpoints.iter().map(|c| c.round).collect();
    let round = rounds[rounds.len() / 2];
    for (label, from, onto) in
        [("lockstep->wavefront", lockstep(), wave()), ("wavefront->lockstep", wave(), lockstep())]
    {
        let snap = snapshot_of(spec, from, mode, delay, round).unwrap();
        let resumed = resume_from(&snap, spec, onto, mode, delay).unwrap();
        assert_eq!(resumed.order, plain.order, "{label}: order diverged");
        assert_eq!(
            report_json(&resumed),
            report_json(&plain),
            "{label}: resume not byte-identical"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Heterogeneous runs stay replayable: with priority classes, a
    /// crash/recover window and per-node admission all active, probing is
    /// still invisible in the serialized report, and a snapshot taken at
    /// any visited round — including rounds *inside* the crash window,
    /// where the frozen node's queues are part of the hashed state —
    /// resumes into a byte-identical report.
    #[test]
    fn snapshot_resume_crosses_a_crash_window(
        proto_idx in 0usize..10,
        delay_kind in 0u8..4,
        k in 1usize..4,
        frac in 0.0f64..1.0,
        crash_node in 0usize..9,
        seed in any::<u64>(),
    ) {
        let spec = &registry()[proto_idx];
        let delay = delay_for(delay_kind, seed);
        let mode = spec.kind().paper_mode();
        let build = || {
            Scenario::build_with(
                TopoSpec::Torus2D { side: 3 },
                RequestPattern::All,
                ArrivalSpec::Poisson { rate: 0.4, seed },
            )
            .with_priority(PrioritySpec::Split { frac, seed })
            .with_faults(FaultSpec::none().crash(crash_node, 2, 9))
            .with_admission(AdmissionSpec::PerNode { bound: 5, protect: 1 })
            .with_shards(ShardSpec::new(k, ShardStrategy::EdgeCut))
        };
        let plain = run_spec_with(spec, &build(), mode, delay).unwrap();
        prop_assert_eq!(plain.report.fault_events.len(), 2, "{}", spec.name());

        let probed = run_spec_with(
            spec,
            &build().with_probe(ProbeSpec::OFF.with_checkpoint_every(1).with_node_hashes(true)),
            mode,
            delay,
        )
        .unwrap();
        prop_assert_eq!(
            report_json(&probed),
            report_json(&plain),
            "{}: probe data leaked into the faulty run's report",
            spec.name()
        );

        // Pick the visited round closest to mid-outage so the snapshot
        // regularly lands inside the crash window.
        let rounds: Vec<u64> = probed.report.checkpoints.iter().map(|c| c.round).collect();
        let round = rounds
            .iter()
            .copied()
            .min_by_key(|r| r.abs_diff(5))
            .expect("checkpointed rounds");
        let snap = snapshot_of(spec, build(), mode, delay, round).unwrap();
        let resumed = resume_from(&snap, spec, build(), mode, delay).unwrap();
        prop_assert_eq!(&resumed.order, &plain.order, "{} order diverged", spec.name());
        prop_assert_eq!(
            report_json(&resumed),
            report_json(&plain),
            "{}: resume through the crash window not byte-identical",
            spec.name()
        );
    }
}

/// Checkpoint and node-digest streams stay executor-independent under
/// fault injection: a crashed node's frozen queues hash canonically, so
/// the monolith and the sharded executor agree at every barrier of a
/// faulty heterogeneous run.
#[test]
fn checkpoints_are_executor_independent_under_faults() {
    let probe = ProbeSpec::OFF.with_checkpoint_every(1).with_node_hashes(true);
    for spec in registry() {
        let mode = spec.kind().paper_mode();
        let build = |k: usize| {
            Scenario::build_with(
                TopoSpec::Torus2D { side: 3 },
                RequestPattern::All,
                ArrivalSpec::Poisson { rate: 0.5, seed: 7 },
            )
            .with_priority(PrioritySpec::Split { frac: 0.25, seed: 11 })
            .with_faults(FaultSpec::none().crash(4, 3, 10))
            .with_shards(ShardSpec::new(k, ShardStrategy::EdgeCut))
            .with_probe(probe)
        };
        let mono = run_spec_with(spec, &build(1), mode, LinkDelay::Unit).unwrap();
        assert!(!mono.report.checkpoints.is_empty(), "{}", spec.name());
        assert_eq!(mono.report.fault_events.len(), 2, "{}", spec.name());
        let sharded = run_spec_with(spec, &build(3), mode, LinkDelay::Unit).unwrap();
        assert_eq!(
            sharded.report.checkpoints,
            mono.report.checkpoints,
            "{}: faulty checkpoint stream diverged from the monolith",
            spec.name()
        );
        assert_eq!(
            sharded.report.node_digests,
            mono.report.node_digests,
            "{}: faulty node digests diverged from the monolith",
            spec.name()
        );
    }
}

/// The probe and the phase clock never change a run: every registry
/// protocol under `open_load`'s knobs — Poisson arrivals, `jitter:max=3`,
/// adaptive admission, `split:frac=0.25` priority — plus one crash window,
/// traced, gives the same completions, issues, drops, trace, counters and
/// rounds with the probe off, with timing only, and with a checkpoint at
/// every round plus timing. The admission target is scaled down to the
/// 16-node torus, so that admission defers here as it does on `open_load`.
#[test]
fn the_probe_and_the_phase_clock_never_change_a_run() {
    let probes = [
        ProbeSpec::OFF,
        ProbeSpec::OFF.with_timing(true),
        ProbeSpec::OFF.with_checkpoint_every(1).with_timing(true),
    ];
    let mut deferred = 0;
    for spec in registry() {
        let mode = spec.kind().paper_mode();
        let [off, timed, checked] = probes.map(|probe| {
            let scenario = Scenario::build_with(
                TopoSpec::Torus2D { side: 4 },
                RequestPattern::All,
                ArrivalSpec::Poisson { rate: 0.5, seed: 7 },
            )
            .with_admission(AdmissionSpec::Adaptive { target_backlog: 4, gain: 1 })
            .with_priority(PrioritySpec::Split { frac: 0.25, seed: 3 })
            .with_faults(FaultSpec::none().crash(5, 3, 12))
            .with_probe(probe);
            let delay = LinkDelay::Jitter { max: 3, seed: 5 };
            run_on_reference(spec, &scenario, mode, delay, SimConfig::with_trace).unwrap()
        });
        let name = spec.name();
        assert!(!off.report.trace.is_empty(), "{name}: untraced");
        assert_eq!(off.report.fault_events.len(), 2, "{name}: the crash never fired");
        assert!(off.report.phase_timing.is_none() && off.report.checkpoints.is_empty());
        assert!(timed.report.phase_timing.is_some() && timed.report.checkpoints.is_empty());
        assert!(checked.report.phase_timing.is_some() && !checked.report.checkpoints.is_empty());
        for (probed, how) in [(&timed, "timing"), (&checked, "checkpoints and timing")] {
            let (a, b) = (&probed.report, &off.report);
            assert_eq!(a.rounds, b.rounds, "{name}: {how} moved the last round");
            assert_eq!(a.trace, b.trace, "{name}: {how} changed the trace");
            assert_eq!(a.issues, b.issues, "{name}: {how} changed the issues");
            assert_eq!(a.dropped, b.dropped, "{name}: {how} changed the drops");
            assert_eq!(report_json(probed), report_json(&off), "{name}: {how} changed the run");
            assert_eq!(probed.order, off.order, "{name}: {how} changed the order");
        }
        deferred += off.report.delayed_admissions;
    }
    assert!(deferred > 0, "admission never deferred an arrival");
}

/// The far-cluster list sweep: requests from nodes {6,7,8} travel toward
/// tail 0, so the find wave crosses node 4 at round 2 — the planted
/// perturbation target the bisection tests below rely on.
fn far_cluster_sweep(probe: fn(RunPlan) -> RunPlan) -> RunSet {
    probe(
        RunPlan::new()
            .topologies([TopoSpec::List { n: 9 }])
            .patterns([RequestPattern::TailCluster { count: 3 }])
            .protocol(&ccq_repro::core::protocol::Arrow),
    )
    .execute()
}

/// Bisection localizes a planted single-node transmit skip to its exact
/// round, phase and node — and reports nothing on identical runs.
#[test]
fn bisect_pinpoints_a_planted_perturbation() {
    let base = far_cluster_sweep(|p| p.checkpoint_every(1).node_hashes(true)).to_json();
    let same = far_cluster_sweep(|p| p.checkpoint_every(1).node_hashes(true)).to_json();
    assert_eq!(first_divergence(&base, &same).unwrap(), None);

    let pert =
        far_cluster_sweep(|p| p.checkpoint_every(1).node_hashes(true).perturb(2, 4)).to_json();
    let div = first_divergence(&base, &pert).unwrap().expect("perturbed run must diverge");
    assert_eq!(div.round, 2, "{div}");
    assert_eq!(div.phase, "transmit", "{div}");
    assert_eq!(div.node, Some(4), "{div}");
    assert_eq!(div.case, 0, "{div}");
}

/// A perturbed run still completes and verifies — the fault shifts
/// timing, never correctness — so bisection compares two *valid* runs.
#[test]
fn perturbed_runs_still_verify() {
    let pert = far_cluster_sweep(|p| p.checkpoint_every(1).perturb(2, 4));
    for case in &pert.cases {
        assert!(case.ok, "perturbed case failed verification: {:?}", case.error);
    }
    let base = far_cluster_sweep(|p| p.checkpoint_every(1));
    let rounds =
        |set: &RunSet| set.cases[0].metrics.as_ref().map(|m| m.rounds).expect("metrics present");
    // The held transmits cost exactly the skipped round.
    assert_eq!(rounds(&pert), rounds(&base) + 1);
}

/// Tampering with a snapshot's state is caught by the resume check, and
/// version-stamped artifacts from the future are rejected by parsers.
#[test]
fn resume_rejects_tampered_and_versioned_snapshots() {
    let build =
        || Scenario::build(TopoSpec::List { n: 9 }, RequestPattern::TailCluster { count: 3 });
    let mut snap = snapshot_of(
        &ccq_repro::core::protocol::Arrow,
        build(),
        ModelMode::Expanded,
        LinkDelay::Unit,
        3,
    )
    .unwrap();
    let parsed = Snapshot::parse(&snap.to_json()).unwrap();
    assert_eq!(parsed, snap);
    snap.digest ^= 1;
    let err = resume_from(
        &snap,
        &ccq_repro::core::protocol::Arrow,
        build(),
        ModelMode::Expanded,
        LinkDelay::Unit,
    )
    .unwrap_err();
    assert!(err.to_string().contains("diverged"), "{err}");
}

/// Per registry protocol: FNV-1a 64 of its `--checkpoint-every 1` stream on
/// `mesh2d:3`, one-shot and under `poisson:rate=0.5` + `adaptive:target=3`.
/// Generated on the commit before the protocols lost their `deferred`
/// constructor mode.
const GOLDEN_STREAMS: [(&str, u64, u64); 10] = [
    ("arrow", 0xcc9aab511da4e513, 0x4a6ee532de4065dc),
    ("arrow+notify", 0xa80e7d0b04416cab, 0x2668bcd252e4271f),
    ("central-queue", 0x8faf743336429cff, 0x92b4a1d07811e134),
    ("combining-queue", 0x5812fb1e92905cc8, 0xb2691491f12386e9),
    ("central-counter", 0x017e3597d3b8a89a, 0x70744fc239d4b724),
    ("combining-tree", 0x08d3602d35473887, 0x161fa4ffa18808d3),
    ("counting-network", 0xf457a417e2e97868, 0x78ce827e288b8e18),
    ("periodic-network", 0x2604e51095595465, 0xe4b179e421fece68),
    ("toggle-tree", 0x4f68407a7f7f6ca0, 0x08b0b45a9b9157bb),
    ("crdt-counter", 0x420abd8b7d6b7591, 0xfac0f5367cd9c0bc),
];

/// Message `Debug` forms, the `Arrivals` token and the canonical state
/// rendering are the `.ccqrec` compatibility format: they feed every
/// checkpoint digest, so a recording made by one build replays on the next
/// only while they hold still. The executor-independence tests above compare
/// two runs of the *same* build and cannot see such a change; this table can.
#[test]
fn checkpoint_streams_match_the_golden_table() {
    let probe = ProbeSpec::OFF.with_checkpoint_every(1);
    let mesh = TopoSpec::Mesh2D { side: 3 };
    let one_shot = Scenario::build(mesh.clone(), RequestPattern::All).with_probe(probe);
    let open = Scenario::build_with(
        mesh,
        RequestPattern::All,
        ArrivalSpec::Poisson { rate: 0.5, seed: 7 },
    )
    .with_admission(AdmissionSpec::Adaptive { target_backlog: 3, gain: 1 })
    .with_probe(probe);
    let actual: Vec<(&str, u64, u64)> = registry()
        .iter()
        .map(|spec| {
            let digest = |scenario: &Scenario| {
                let mode = spec.kind().paper_mode();
                let out = run_spec_with(spec, scenario, mode, LinkDelay::Unit).unwrap();
                let stream: String = out
                    .report
                    .checkpoints
                    .iter()
                    .map(|c| {
                        let [a, m, d, t] = [c.arrivals, c.mature, c.deliver, c.transmit];
                        format!("{}:{a:016x}:{m:016x}:{d:016x}:{t:016x};", c.round)
                    })
                    .collect();
                fnv1a(stream.as_bytes())
            };
            (spec.name(), digest(&one_shot), digest(&open))
        })
        .collect();
    assert_eq!(actual, GOLDEN_STREAMS, "the checkpoint streams moved; read: {actual:#x?}");
}
