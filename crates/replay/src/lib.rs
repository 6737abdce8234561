//! Deterministic record/replay, checkpoints, and divergence bisection.
//!
//! The engine below this crate is already deterministic end to end: all
//! sampling is hash-based (request sets, arrival schedules, link jitter),
//! so a run is fully defined by its *command stream* — the sweep arguments
//! that built it. A [`Recording`] therefore stores exactly that stream
//! plus the produced output, and **replay is re-execution**: feed the
//! recorded arguments back through the same binary and compare bytes.
//! What this crate adds on top of re-execution is *verification* and
//! *localization*:
//!
//! * **checkpoints** — the probe layer ([`ccq_sim::ProbeSpec`]) hashes
//!   canonical engine state at every phase barrier of observed rounds,
//!   identically across all executor paths (monolith, sharded, dense
//!   scan), so two runs can be compared in hash-lockstep;
//! * **snapshots** — a [`Snapshot`] captures the full canonical state at
//!   one transmit barrier. Because the vendored serde has no
//!   deserializer, [`resume_from`] is *hash-verified re-execution*: it
//!   re-runs the scenario, checks the re-captured state is byte-identical
//!   to the snapshot at the snapshot round, and returns the completed
//!   run — byte-identical to the uninterrupted one by construction, with
//!   the equality check turning any drift into a hard error;
//! * **bisection** — [`first_divergence`] walks two runs' checkpoint
//!   streams and reports the exact first divergent `(round, phase)` —
//!   and, when per-node digests were recorded, the node.

use ccq_core::prelude::*;
use ccq_sim::Round;
use serde::Serialize;
use serde_json::Value;
use std::fmt;

/// Version stamp written into every `.ccqrec` recording and snapshot.
pub const CURRENT_VERSION: u64 = 1;

/// Format marker distinguishing recordings from arbitrary JSON.
pub const FORMAT: &str = "ccqrec";

/// The four scheduler phases, in barrier order — the walk order of the
/// divergence finder (it must match [`ccq_sim::Phase`]).
const PHASES: [&str; 4] = ["arrivals", "mature", "deliver", "transmit"];

/// Everything that can go wrong reading or verifying replay artifacts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The input is not a well-formed recording / snapshot / run set.
    Malformed {
        /// What was wrong with it.
        what: String,
    },
    /// The artifact was written by an incompatible format version.
    Version {
        /// Version found in the artifact.
        found: u64,
        /// Version this crate reads.
        expected: u64,
    },
    /// A resumed run failed to reproduce the snapshot state.
    Diverged {
        /// The snapshot round at which state was compared.
        round: Round,
    },
}

impl ReplayError {
    fn malformed(what: impl Into<String>) -> Self {
        ReplayError::Malformed { what: what.into() }
    }
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Malformed { what } => write!(f, "malformed replay artifact: {what}"),
            ReplayError::Version { found, expected } => {
                write!(f, "unsupported format version {found} (this build reads {expected})")
            }
            ReplayError::Diverged { round } => {
                write!(f, "resumed run diverged from the snapshot at round {round}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// A recorded run: the command stream that defines it (the sweep argument
/// vector — the engine has no other randomness source) plus the output it
/// produced, so replay can compare bytes without re-parsing semantics.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Recording {
    /// Format version ([`CURRENT_VERSION`]).
    pub version: u64,
    /// Format marker ([`FORMAT`]).
    pub format: String,
    /// The sweep argument tokens, exactly as passed after `ccq record`.
    pub argv: Vec<String>,
    /// Checkpoint interval the recording ran with (0 = none requested).
    pub checkpoint_every: u64,
    /// The run's complete JSON output ([`RunSet`] encoding), verbatim.
    pub output: String,
}

impl Recording {
    /// Package a finished run.
    pub fn new(argv: Vec<String>, checkpoint_every: u64, output: String) -> Recording {
        Recording {
            version: CURRENT_VERSION,
            format: FORMAT.to_string(),
            argv,
            checkpoint_every,
            output,
        }
    }

    /// The `.ccqrec` encoding (one JSON document).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("Recording serialization is infallible")
    }

    /// Parse a `.ccqrec` document, rejecting wrong formats and versions
    /// constructively.
    pub fn parse(text: &str) -> Result<Recording, ReplayError> {
        let doc = serde_json::from_str(text)
            .map_err(|e| ReplayError::malformed(format!("not JSON: {e:?}")))?;
        let format = field(&doc, "format", Value::as_str)
            .map_err(|_| ReplayError::malformed("missing `format` marker"))?;
        if format != FORMAT {
            return Err(ReplayError::malformed(format!(
                "format marker is `{format}`, expected `{FORMAT}`"
            )));
        }
        let version = field(&doc, "version", Value::as_u64)?;
        if version != CURRENT_VERSION {
            return Err(ReplayError::Version { found: version, expected: CURRENT_VERSION });
        }
        let argv = field(&doc, "argv", Value::as_array)?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ReplayError::malformed("non-string argv token"))
            })
            .collect::<Result<Vec<String>, ReplayError>>()?;
        let checkpoint_every = field(&doc, "checkpoint_every", Value::as_u64)?;
        let output = field(&doc, "output", Value::as_str)?.to_string();
        Ok(Recording { version, format: format.to_string(), argv, checkpoint_every, output })
    }
}

/// `doc[key]` as `read` takes it, or the "missing `key`" diagnostic.
fn field<'a, T>(
    doc: &'a Value,
    key: &str,
    read: fn(&'a Value) -> Option<T>,
) -> Result<T, ReplayError> {
    doc.get(key).and_then(read).ok_or_else(|| ReplayError::malformed(format!("missing `{key}`")))
}

/// Full canonical engine state at one transmit barrier, with its digest.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Snapshot {
    /// Format version ([`CURRENT_VERSION`]).
    pub version: u64,
    /// Round whose transmit barrier was captured.
    pub round: Round,
    /// FNV-1a 64 of `state` as the probe layer computed it.
    pub digest: u64,
    /// The canonical state rendering (see [`ccq_sim::probe`]).
    pub state: String,
}

impl Snapshot {
    /// One-document JSON encoding.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("Snapshot serialization is infallible")
    }

    /// Parse a snapshot document, rejecting wrong versions constructively.
    pub fn parse(text: &str) -> Result<Snapshot, ReplayError> {
        let doc = serde_json::from_str(text)
            .map_err(|e| ReplayError::malformed(format!("not JSON: {e:?}")))?;
        let version = field(&doc, "version", Value::as_u64)?;
        if version != CURRENT_VERSION {
            return Err(ReplayError::Version { found: version, expected: CURRENT_VERSION });
        }
        let round = field(&doc, "round", Value::as_u64)?;
        let digest = field(&doc, "digest", Value::as_u64)?;
        let state = field(&doc, "state", Value::as_str)?.to_string();
        Ok(Snapshot { version, round, digest, state })
    }
}

/// Run `spec` on `scenario` and capture a [`Snapshot`] at the transmit
/// barrier of `round`. Fails constructively if the run never executes
/// `round`: it quiesced first, or the idle fast-forward jumped over it
/// (the rounds a checkpointed run records are exactly the executed ones).
pub fn snapshot_of(
    spec: &ProtocolSpec,
    scenario: Scenario,
    mode: ModelMode,
    delay: LinkDelay,
    round: Round,
) -> Result<Snapshot, ReplayError> {
    let probe = scenario.probe.with_snapshot_at(round);
    let scenario = scenario.with_probe(probe);
    let out = run_spec_with(spec, &scenario, mode, delay)
        .map_err(|e| ReplayError::malformed(format!("snapshot run failed: {e}")))?;
    match (out.report.snapshot_digest, out.report.snapshot_state) {
        (Some(digest), Some(state)) => {
            Ok(Snapshot { version: CURRENT_VERSION, round, digest, state })
        }
        _ if out.report.rounds > round => Err(ReplayError::malformed(format!(
            "round {round} was skipped by the idle fast-forward; the run lasted {} rounds \
             — snapshot an executed round",
            out.report.rounds
        ))),
        _ => Err(ReplayError::malformed(format!(
            "run quiesced before the snapshot round {round} (lasted {} rounds)",
            out.report.rounds
        ))),
    }
}

/// Resume a run from `snapshot`: re-execute the scenario deterministically,
/// verify the engine passes through a state byte-identical to the snapshot
/// at `snapshot.round`, and return the completed run.
///
/// The returned [`RunOutcome`] is byte-identical to the uninterrupted run
/// by construction — the engine is deterministic, so re-execution *is* the
/// continuation — and the state comparison converts any violation of that
/// premise (code drift, differing scenario, corrupted snapshot) into
/// [`ReplayError::Diverged`] instead of silently wrong output.
pub fn resume_from(
    snapshot: &Snapshot,
    spec: &ProtocolSpec,
    scenario: Scenario,
    mode: ModelMode,
    delay: LinkDelay,
) -> Result<RunOutcome, ReplayError> {
    if snapshot.version != CURRENT_VERSION {
        return Err(ReplayError::Version { found: snapshot.version, expected: CURRENT_VERSION });
    }
    let probe = scenario.probe.with_snapshot_at(snapshot.round);
    let scenario = scenario.with_probe(probe);
    let out = run_spec_with(spec, &scenario, mode, delay)
        .map_err(|e| ReplayError::malformed(format!("resume run failed: {e}")))?;
    match (&out.report.snapshot_digest, &out.report.snapshot_state) {
        (Some(digest), Some(state)) if *digest == snapshot.digest && *state == snapshot.state => {}
        _ => return Err(ReplayError::Diverged { round: snapshot.round }),
    }
    Ok(out)
}

/// The first point where two runs' checkpoint streams disagree.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Divergence {
    /// Index of the divergent case in the sweeps' cross-product.
    pub case: u64,
    /// Human-readable case label (`topology/protocol/delay`).
    pub label: String,
    /// First round whose digests disagree.
    pub round: Round,
    /// First phase barrier of that round that disagrees.
    pub phase: String,
    /// The first divergent node at that barrier, when per-node digests
    /// were recorded and the difference is attributable to one node's
    /// queues (a divergence living only in in-flight wires or counters
    /// has no node).
    pub node: Option<u64>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "case {} ({}) diverges at round {}, phase {}",
            self.case, self.label, self.round, self.phase
        )?;
        match self.node {
            Some(v) => write!(f, ", node {v}"),
            None => write!(f, " (no single node attributable)"),
        }
    }
}

/// Walk two [`RunSet`] JSON documents case by case and return the first
/// checkpoint divergence, or `None` when every paired case's checkpoint
/// stream (and per-node digest stream) is identical.
///
/// Only probe data is compared — the documents themselves may legitimately
/// differ elsewhere (`shards` labels, `cross_shard_messages`), which is
/// exactly why bisection runs both configurations in hash-lockstep rather
/// than diffing raw output.
pub fn first_divergence(a_json: &str, b_json: &str) -> Result<Option<Divergence>, ReplayError> {
    let a = parse_cases(a_json, "first input")?;
    let b = parse_cases(b_json, "second input")?;
    if a.len() != b.len() {
        return Err(ReplayError::malformed(format!(
            "case counts differ ({} vs {}): the two sweeps do not pair up",
            a.len(),
            b.len()
        )));
    }
    for (ca, cb) in a.iter().zip(&b) {
        if let Some(div) = case_divergence(ca, cb)? {
            return Ok(Some(div));
        }
    }
    Ok(None)
}

/// The per-case JSON values of a RunSet document.
fn parse_cases(json: &str, which: &str) -> Result<Vec<Value>, ReplayError> {
    let doc = serde_json::from_str(json)
        .map_err(|e| ReplayError::malformed(format!("{which} is not JSON: {e:?}")))?;
    let cases = doc
        .get("cases")
        .and_then(Value::as_array)
        .ok_or_else(|| ReplayError::malformed(format!("{which} has no `cases` array")))?;
    Ok(cases.to_vec())
}

/// Compare one paired case's checkpoint streams.
fn case_divergence(a: &Value, b: &Value) -> Result<Option<Divergence>, ReplayError> {
    let case = a.get("case").and_then(Value::as_u64).unwrap_or(0);
    let label = format!(
        "{}/{}/{}",
        a.get("topology").and_then(Value::as_str).unwrap_or("?"),
        a.get("protocol").and_then(Value::as_str).unwrap_or("?"),
        a.get("delay").and_then(Value::as_str).unwrap_or("?"),
    );
    let empty: Vec<Value> = Vec::new();
    let ca = a.get("checkpoints").and_then(Value::as_array).unwrap_or(&empty);
    let cb = b.get("checkpoints").and_then(Value::as_array).unwrap_or(&empty);
    let at = |cp: &Value, key: &str| cp.get(key).and_then(Value::as_u64).unwrap_or(0);
    for (pa, pb) in ca.iter().zip(cb) {
        let (ra, rb) = (at(pa, "round"), at(pb, "round"));
        if ra != rb {
            // The executions visit different round sets (a quiescence /
            // fast-forward split): the divergence began at or before the
            // earlier of the two rounds.
            return Ok(Some(Divergence {
                case,
                label,
                round: ra.min(rb),
                phase: PHASES[0].to_string(),
                node: None,
            }));
        }
        for phase in PHASES {
            if at(pa, phase) != at(pb, phase) {
                let node = divergent_node(a, b, ra, phase);
                return Ok(Some(Divergence {
                    case,
                    label,
                    round: ra,
                    phase: phase.to_string(),
                    node,
                }));
            }
        }
    }
    if ca.len() != cb.len() {
        // Equal prefix but one run kept going: divergent at the first
        // unpaired checkpoint.
        let extra = if ca.len() > cb.len() { &ca[cb.len()] } else { &cb[ca.len()] };
        return Ok(Some(Divergence {
            case,
            label,
            round: at(extra, "round"),
            phase: PHASES[0].to_string(),
            node: None,
        }));
    }
    Ok(None)
}

/// Localize a `(round, phase)` checkpoint mismatch to the first node whose
/// per-node digest differs between the two cases (ascending node id).
/// `None` when node digests were not recorded or every recorded node
/// agrees (the difference lives in wires or counters).
fn divergent_node(a: &Value, b: &Value, round: u64, phase: &str) -> Option<u64> {
    // Phase enum values serialize capitalized ("Transmit"); compare
    // case-insensitively against the lower-case barrier label.
    let digests = |case: &Value| -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = case
            .get("node_digests")
            .and_then(Value::as_array)
            .map(|list| {
                list.iter()
                    .filter(|d| {
                        d.get("round").and_then(Value::as_u64) == Some(round)
                            && d.get("phase")
                                .and_then(Value::as_str)
                                .is_some_and(|p| p.eq_ignore_ascii_case(phase))
                    })
                    .filter_map(|d| {
                        Some((
                            d.get("node").and_then(Value::as_u64)?,
                            d.get("digest").and_then(Value::as_u64)?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
        v.sort_unstable();
        v
    };
    let da = digests(a);
    let db = digests(b);
    if da.is_empty() && db.is_empty() {
        return None;
    }
    // First node present in only one run, or present in both with
    // different digests.
    let (mut i, mut j) = (0usize, 0usize);
    while i < da.len() && j < db.len() {
        let ((va, ha), (vb, hb)) = (da[i], db[j]);
        if va == vb {
            if ha != hb {
                return Some(va);
            }
            i += 1;
            j += 1;
        } else {
            return Some(va.min(vb));
        }
    }
    if i < da.len() {
        return Some(da[i].0);
    }
    if j < db.len() {
        return Some(db[j].0);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_core::protocol::Arrow;

    /// A sweep whose find wave crosses the whole list: the far cluster's
    /// requests travel toward the tail over ~6 rounds, so mid-run rounds
    /// have real traffic to perturb and checkpoint.
    fn sweep(probe: fn(RunPlan) -> RunPlan) -> RunSet {
        probe(
            RunPlan::new()
                .topologies([TopoSpec::List { n: 9 }])
                .patterns([RequestPattern::TailCluster { count: 3 }])
                .protocol(&Arrow),
        )
        .execute()
    }

    /// The matching single-run scenario (node 4 forwards the wave at
    /// round 2; the run lasts 6 rounds).
    fn far_cluster() -> Scenario {
        Scenario::build(TopoSpec::List { n: 9 }, RequestPattern::TailCluster { count: 3 })
    }

    #[test]
    fn recording_roundtrips_with_embedded_json() {
        let rec = Recording::new(
            vec!["--topo".into(), "list:8".into(), "--proto".into(), "arrow".into()],
            64,
            r#"{"plan":{"seed":0},"cases":[{"ok":true,"note":"a\"b\\c"}]}"#.into(),
        );
        let parsed = Recording::parse(&rec.to_json()).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn malformed_and_mismatched_recordings_are_rejected() {
        assert!(matches!(
            Recording::parse("{not json").unwrap_err(),
            ReplayError::Malformed { .. }
        ));
        assert!(matches!(
            Recording::parse(r#"{"version":1}"#).unwrap_err(),
            ReplayError::Malformed { .. }
        ));
        // A truncated recording (chopped mid-document) fails cleanly.
        let rec = Recording::new(vec!["--topo".into()], 0, "{}".into()).to_json();
        assert!(Recording::parse(&rec[..rec.len() / 2]).is_err());
        // Wrong format marker.
        let err = Recording::parse(
            r#"{"version":1,"format":"zip","argv":[],"checkpoint_every":0,"output":""}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("zip"), "{err}");
        // Future version.
        let err = Recording::parse(
            r#"{"version":99,"format":"ccqrec","argv":[],"checkpoint_every":0,"output":""}"#,
        )
        .unwrap_err();
        assert_eq!(err, ReplayError::Version { found: 99, expected: CURRENT_VERSION });
        assert!(err.to_string().contains("99"), "{err}");
    }

    /// A field that is absent, or of the wrong type, is named in the
    /// diagnostic — the same words for a recording and a snapshot.
    #[test]
    fn every_missing_field_is_named() {
        let version = CURRENT_VERSION.to_string();
        let recording: &[(&str, &str, &str)] = &[
            ("format", r#""ccqrec""#, "missing `format` marker"),
            ("version", &version, "missing `version`"),
            ("argv", r#"["--topo"]"#, "missing `argv`"),
            ("checkpoint_every", "0", "missing `checkpoint_every`"),
            ("output", r#""{}""#, "missing `output`"),
        ];
        let snapshot: &[(&str, &str, &str)] = &[
            ("version", &version, "missing `version`"),
            ("round", "3", "missing `round`"),
            ("digest", "7", "missing `digest`"),
            ("state", r#""n0""#, "missing `state`"),
        ];
        check_fields(recording, |t| Recording::parse(t).err());
        check_fields(snapshot, |t| Snapshot::parse(t).err());
    }

    /// `parse` accepts a document of every `(key, value, _)` of `fields`,
    /// and names each key's diagnostic when it is absent or `true`.
    fn check_fields(fields: &[(&str, &str, &str)], parse: impl Fn(&str) -> Option<ReplayError>) {
        // Every field but `skip`, which is `with` (or absent).
        let doc = |skip: &str, with: Option<&str>| {
            let member = |&(key, value, _): &(&str, &str, &str)| match key == skip {
                true => with.map(|w| format!("\"{key}\":{w}")),
                false => Some(format!("\"{key}\":{value}")),
            };
            format!("{{{}}}", fields.iter().filter_map(member).collect::<Vec<_>>().join(","))
        };
        assert_eq!(parse(&doc("", None)), None);
        for &(key, _, what) in fields {
            for text in [doc(key, None), doc(key, Some("true"))] {
                let what = what.to_string();
                assert_eq!(parse(&text), Some(ReplayError::Malformed { what }), "{text}");
            }
        }
    }

    #[test]
    fn snapshot_roundtrips_and_rejects_versions() {
        let snap = Snapshot {
            version: CURRENT_VERSION,
            round: 7,
            digest: 0xdead_beef,
            state: "n0:in[1@2:()]c[ms=3]".into(),
        };
        assert_eq!(Snapshot::parse(&snap.to_json()).unwrap(), snap);
        let err = Snapshot::parse(r#"{"version":2,"round":0,"digest":0,"state":""}"#).unwrap_err();
        assert_eq!(err, ReplayError::Version { found: 2, expected: CURRENT_VERSION });
    }

    #[test]
    fn snapshot_resume_reproduces_the_uninterrupted_run() {
        let plain =
            run_spec_with(&Arrow, &far_cluster(), ModelMode::Expanded, LinkDelay::Unit).unwrap();
        let snap =
            snapshot_of(&Arrow, far_cluster(), ModelMode::Expanded, LinkDelay::Unit, 3).unwrap();
        assert_eq!(snap.round, 3);
        let resumed =
            resume_from(&snap, &Arrow, far_cluster(), ModelMode::Expanded, LinkDelay::Unit)
                .unwrap();
        assert_eq!(
            serde_json::to_string(&resumed.report).unwrap(),
            serde_json::to_string(&plain.report).unwrap(),
            "resume must be byte-identical to the uninterrupted run"
        );
        assert_eq!(resumed.order, plain.order);
    }

    /// The same list under sparse open arrivals: the engine goes idle
    /// between them, and the fast-forward to the next arrival skips rounds.
    fn sparse_arrivals() -> Scenario {
        Scenario::build_with(
            TopoSpec::List { n: 9 },
            RequestPattern::TailCluster { count: 3 },
            ArrivalSpec::Poisson { rate: 0.05, seed: 3 },
        )
    }

    #[test]
    fn tampered_snapshots_fail_the_resume_check() {
        for (label, build) in
            [("one-shot", far_cluster as fn() -> Scenario), ("open", sparse_arrivals)]
        {
            let snapshot =
                |round| snapshot_of(&Arrow, build(), ModelMode::Expanded, LinkDelay::Unit, round);
            let probe = ProbeSpec::OFF.with_checkpoint_every(1);
            let probed = run_spec_with(
                &Arrow,
                &build().with_probe(probe),
                ModelMode::Expanded,
                LinkDelay::Unit,
            )
            .unwrap();
            let executed: Vec<Round> = probed.report.checkpoints.iter().map(|c| c.round).collect();
            let round = executed[executed.len() / 2];
            let mut snap = snapshot(round).unwrap();
            snap.state.push('x');
            let err = resume_from(&snap, &Arrow, build(), ModelMode::Expanded, LinkDelay::Unit)
                .unwrap_err();
            assert_eq!(err, ReplayError::Diverged { round }, "{label}");
            // A run that quiesces before the requested round fails too.
            let err = snapshot(10_000).unwrap_err();
            assert!(err.to_string().contains("quiesced"), "{label}: {err}");
            // A round the idle fast-forward jumped over was never executed,
            // and the error says so instead of claiming quiescence.
            let skipped = (0..probed.report.rounds).find(|r| !executed.contains(r));
            assert_eq!(skipped.is_some(), label == "open", "{label}: idle gap expected only open");
            if let Some(r) = skipped {
                let err = snapshot(r).unwrap_err().to_string();
                assert!(
                    err.contains(&format!("round {r} was skipped by the idle fast-forward"))
                        && err.contains("snapshot an executed round"),
                    "{label}: {err}"
                );
            }
        }
    }

    #[test]
    fn identical_sweeps_have_no_divergence() {
        let a = sweep(|p| p.checkpoint_every(1).node_hashes(true)).to_json();
        let b = sweep(|p| p.checkpoint_every(1).node_hashes(true)).to_json();
        assert_eq!(first_divergence(&a, &b).unwrap(), None);
    }

    #[test]
    fn planted_perturbation_is_localized_to_round_phase_and_node() {
        let base = sweep(|p| p.checkpoint_every(1).node_hashes(true)).to_json();
        let pert = sweep(|p| p.checkpoint_every(1).node_hashes(true).perturb(2, 4)).to_json();
        let div = first_divergence(&base, &pert).unwrap().expect("must diverge");
        assert_eq!(div.round, 2, "{div}");
        assert_eq!(div.phase, "transmit", "{div}");
        assert_eq!(div.node, Some(4), "{div}");
        assert!(div.label.contains("arrow"), "{div}");
    }

    #[test]
    fn mismatched_case_counts_are_an_error() {
        let one = sweep(|p| p.checkpoint_every(1)).to_json();
        let two = RunPlan::new()
            .topologies([TopoSpec::List { n: 8 }])
            .protocol(&Arrow)
            .protocol(&ccq_core::protocol::CentralQueue)
            .checkpoint_every(1)
            .execute()
            .to_json();
        assert!(matches!(first_divergence(&one, &two).unwrap_err(), ReplayError::Malformed { .. }));
    }
}
