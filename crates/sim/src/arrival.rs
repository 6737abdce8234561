//! Arrivals: request-injection processes and the [`Arrivals`] value the
//! scheduler's arrivals phase issues from.
//!
//! The paper's one-shot scenario injects every request at round 0. An
//! [`ArrivalSpec`] generalizes that to requests arriving *over time*:
//! given the request set it produces a deterministic schedule
//! `(issue round, node)` — one entry per requester, sorted by round. The
//! sampling uses a private splitmix64 stream keyed by the spec's own seed,
//! so schedules are identical across runs, platforms and thread counts
//! (thread-safe by construction).
//!
//! A run given such a schedule ([`crate::Simulator::with_arrivals`]) issues
//! each operation through [`Protocol::issue`] at its round, recorded in the
//! report (via `SimApi::issue`, feeding completion-latency and backlog
//! metrics), and wakes the otherwise-quiescent engine for future arrivals.
//! A run given none issues [`Protocol::requests`] at round 0.

use crate::admission::{Admission, AdmissionController, AdmissionPolicy};
use crate::protocol::{Protocol, SimApi};
use crate::report::mix64;
use crate::{Round, SimError};
use ccq_graph::NodeId;

/// Inject `v`'s operation into `protocol` now, through its handler-form
/// [`Protocol::issue`] on `v`'s slice.
pub(crate) fn inject<P: Protocol>(protocol: &mut P, api: &mut SimApi<P::Msg>, v: NodeId) {
    let (shared, slice) = protocol.at(v);
    P::issue(shared, slice, &mut api.at(v), v);
}

/// *When* the request set issues its operations.
///
/// `OneShot` is the paper's batch (everything at round 0), which a run
/// with no [`Arrivals`] issues. Every open variant is a *closed-form
/// deterministic sampler* carrying its own seed: [`ArrivalSpec::materialize`]
/// maps the request set to issue rounds without shared state, so the same
/// spec gives byte-identical schedules everywhere, and [`Arrivals`] issues
/// the protocol's operations from that schedule.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalSpec {
    /// Every request at round 0 — the paper's one-shot batch.
    OneShot,
    /// Per-round Bernoulli thinning at `rate` arrivals/round (geometric
    /// inter-arrival gaps — the discrete Poisson process). Requesters are
    /// deterministically shuffled, then spaced by sampled gaps.
    Poisson {
        /// Expected arrivals per round, in `(0, 1]`.
        rate: f64,
        /// Schedule seed.
        seed: u64,
    },
    /// On/off bursts: arrivals follow the Poisson process at `rate` during
    /// `on`-round bursts separated by `off` silent rounds.
    Bursty {
        /// Expected arrivals per active round, in `(0, 1]`.
        rate: f64,
        /// Burst length in rounds (≥ 1).
        on: Round,
        /// Gap between bursts in rounds.
        off: Round,
        /// Schedule seed.
        seed: u64,
    },
    /// Hotspot skew: arrival *order* is drawn without replacement with
    /// Zipf(`s`) weights over the sorted request set (low-index requesters
    /// cluster at the front), gaps are geometric at `rate` — the skewed
    /// stress regime of priority-scheduling workloads.
    Hotspot {
        /// Expected arrivals per round, in `(0, 1]`.
        rate: f64,
        /// Zipf exponent (> 0; larger = more skew).
        s: f64,
        /// Schedule seed.
        seed: u64,
    },
}

/// Private deterministic RNG stream for arrival sampling.
struct Stream {
    state: u64,
}

impl Stream {
    fn new(seed: u64) -> Self {
        // Decorrelate nearby seeds before drawing.
        Stream { state: mix64(seed, 0x6A09_E667_F3BC_C909, 0, 0) }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state, 1, 2, 3)
    }

    /// Uniform in the open interval (0, 1).
    fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
    }

    /// Geometric number of failure rounds before a success at probability
    /// `p` — the inter-arrival gap of a per-round Bernoulli process.
    fn next_gap(&mut self, p: f64) -> Round {
        let p = p.clamp(1e-9, 1.0);
        if p >= 1.0 {
            return 0;
        }
        let u = self.next_f64();
        (u.ln() / (1.0 - p).ln()).floor() as Round
    }

    /// Deterministic Fisher–Yates shuffle.
    fn shuffle(&mut self, v: &mut [NodeId]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

impl ArrivalSpec {
    /// Short display name (used by sweeps and the CLI).
    pub fn name(&self) -> String {
        match self {
            ArrivalSpec::OneShot => "oneshot".into(),
            ArrivalSpec::Poisson { rate, seed } => format!("poisson(rate={rate},seed={seed})"),
            ArrivalSpec::Bursty { rate, on, off, seed } => {
                format!("bursty(rate={rate},on={on},off={off},seed={seed})")
            }
            ArrivalSpec::Hotspot { rate, s, seed } => {
                format!("hotspot(rate={rate},s={s},seed={seed})")
            }
        }
    }

    /// Whether this is an open-system arrival (anything but the batch).
    pub fn is_open(&self) -> bool {
        !matches!(self, ArrivalSpec::OneShot)
    }

    /// A deterministically re-seeded copy for repeat `salt` of a sweep
    /// (`salt` 0 always returns `self` verbatim; `OneShot` is unchanged).
    pub fn reseed(&self, salt: u64) -> ArrivalSpec {
        let mut out = self.clone();
        if salt > 0 {
            if let ArrivalSpec::Poisson { seed, .. }
            | ArrivalSpec::Bursty { seed, .. }
            | ArrivalSpec::Hotspot { seed, .. } = &mut out
            {
                *seed = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
        }
        out
    }

    /// Materialize the issue schedule for `nodes`: exactly one
    /// `(issue round, node)` entry per requester, sorted by round (ties
    /// keep arrival order). Deterministic in `(self, nodes)`.
    pub fn materialize(&self, nodes: &[NodeId]) -> Vec<(Round, NodeId)> {
        match *self {
            ArrivalSpec::OneShot => nodes.iter().map(|&v| (0, v)).collect(),
            ArrivalSpec::Poisson { rate, seed } => {
                let mut order = nodes.to_vec();
                let mut st = Stream::new(seed);
                st.shuffle(&mut order);
                Self::space_out(order, rate, &mut st, |t| t)
            }
            ArrivalSpec::Bursty { rate, on, off, seed } => {
                let on = on.max(1);
                let mut order = nodes.to_vec();
                let mut st = Stream::new(seed);
                st.shuffle(&mut order);
                // Gaps are sampled in *active* time, then mapped onto the
                // on/off window structure.
                Self::space_out(order, rate, &mut st, |t| (t / on) * (on + off) + (t % on))
            }
            ArrivalSpec::Hotspot { rate, s, seed } => {
                let mut st = Stream::new(seed);
                // Efraimidis–Spirakis weighted sampling without
                // replacement: sort ascending by −ln(u)/w, weight of the
                // i-th smallest node id ∝ 1/(i+1)^s.
                let mut sorted = nodes.to_vec();
                sorted.sort_unstable();
                let mut keyed: Vec<(f64, NodeId)> = sorted
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        let w = 1.0 / ((i + 1) as f64).powf(s.max(1e-6));
                        (-st.next_f64().ln() / w, v)
                    })
                    .collect();
                keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let order: Vec<NodeId> = keyed.into_iter().map(|(_, v)| v).collect();
                Self::space_out(order, rate, &mut st, |t| t)
            }
        }
    }

    /// Assign cumulative geometric gaps at `rate` to `order`, mapping each
    /// cumulative active round through `warp` (identity for Poisson, the
    /// on/off window for bursts).
    fn space_out(
        order: Vec<NodeId>,
        rate: f64,
        st: &mut Stream,
        warp: impl Fn(Round) -> Round,
    ) -> Vec<(Round, NodeId)> {
        let mut t: Round = 0;
        let mut out = Vec::with_capacity(order.len());
        for (i, v) in order.into_iter().enumerate() {
            if i > 0 {
                t += st.next_gap(rate);
            }
            out.push((warp(t), v));
        }
        out
    }
}

/// A run's open schedule: each scheduled node is issued at its round by
/// the scheduler's arrivals phase, which enters the issue loop only at a
/// round where an arrival or a retry is due (`Arrivals::next_due`) and
/// wakes a quiescent engine for it.
///
/// With an [`AdmissionPolicy`] attached ([`Arrivals::with_admission`]) each
/// due arrival first passes through an [`AdmissionController`] evaluated
/// against the live global backlog (`SimApi::backlog`): admitted
/// arrivals issue, shed ones are recorded as drops and cancelled on the
/// protocol ([`Protocol::cancel`]), delayed ones are re-queued for a later
/// round. The default [`AdmissionPolicy::Open`] admits everything.
///
/// [`Arrivals::with_priority`] tags every node with a class (0 = highest)
/// and reorders each same-round due batch by deterministic relaxed
/// power-of-two-choices priority selection, so high classes reach the
/// admission gate — and the combining wave — first.
///
/// The rest it reads from the run, which holds it once:
///
/// * an arrival at a node the run's fault plan
///   ([`crate::Simulator::with_faults`], read through
///   [`SimApi::down_until`]) has down waits for its recovery round (the
///   node cannot originate a request while down);
/// * under [`AdmissionPolicy::PerNode`] the run counts open operations per
///   shard of its cut, which admission reads through
///   `SimApi::shard_backlog`.
#[derive(Debug)]
pub struct Arrivals {
    /// `(round, node)` sorted by round (ties keep schedule order).
    schedule: Vec<(Round, NodeId)>,
    next: usize,
    admission: AdmissionController,
    /// Deferred arrivals awaiting retry: `(retry round, first-due round,
    /// node)`, kept sorted by retry round (ties keep deferral order).
    retries: Vec<(Round, Round, NodeId)>,
    /// Per-node priority class (0 = highest); empty = uniform (inactive).
    classes: Vec<u8>,
    /// Seed for the power-of-two-choices priority draws.
    prio_seed: u64,
    /// Scratch of [`Arrivals::issue_due`]: one round's due batch,
    /// `(first-due round, node)`, its capacity kept across rounds.
    due: Vec<(Round, NodeId)>,
}

impl Arrivals {
    /// Issue `schedule`'s nodes at their rounds. A node scheduled twice,
    /// or not a node of the graph, makes the run return
    /// [`SimError::InvalidConfig`].
    pub fn new(mut schedule: Vec<(Round, NodeId)>) -> Self {
        schedule.sort_by_key(|&(r, _)| r);
        Arrivals {
            schedule,
            next: 0,
            admission: AdmissionController::new(AdmissionPolicy::Open),
            retries: Vec::new(),
            classes: Vec::new(),
            prio_seed: 0,
            due: Vec::new(),
        }
    }

    /// Builder-style: gate arrivals through an admission policy.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = AdmissionController::new(policy);
        self
    }

    /// Builder-style: tag node `v` with class `classes[v]` (0 = highest)
    /// and order each same-round due batch by relaxed power-of-two-choices
    /// priority selection seeded by `seed`. An empty `classes` disables
    /// priority entirely (the exact pre-priority issue order).
    pub fn with_priority(mut self, classes: Vec<u8>, seed: u64) -> Self {
        self.classes = classes;
        self.prio_seed = seed;
        self
    }

    /// Reject a schedule that names a node twice or a node outside the
    /// `n` processors — checked by the scheduler before round 0.
    pub(crate) fn validate(&self, n: usize) -> Result<(), SimError> {
        let mut nodes: Vec<NodeId> = self.schedule.iter().map(|&(_, v)| v).collect();
        nodes.sort_unstable();
        if let Some(v) = nodes.last().filter(|&&v| v >= n) {
            let what = format!("node {v} is scheduled but the graph has {n} nodes");
            return Err(SimError::invalid_config(what));
        }
        match nodes.windows(2).find(|w| w[0] == w[1]) {
            Some(w) => Err(SimError::invalid_config(format!("node {} scheduled twice", w[0]))),
            None => Ok(()),
        }
    }

    /// Whether admission gates on shard-local backlogs, so the run must
    /// count open operations per shard.
    pub(crate) fn is_shard_scoped(&self) -> bool {
        self.admission.policy.is_shard_scoped()
    }

    /// `v`'s priority class (0 — the highest — when unmapped).
    fn class_of(&self, v: NodeId) -> u8 {
        self.classes.get(v).copied().unwrap_or(0)
    }

    /// Everything that determines future arrivals but is not visible in
    /// queues, wires or report counters — the schedule cursor, pending
    /// retries and the AIMD interval — for the probe's state hashes.
    pub(crate) fn token(&self) -> String {
        let (next, retries, interval) = (self.next, &self.retries, self.admission.interval());
        format!("paced(next={next},retries={retries:?},interval={interval})")
    }

    /// Decide one due arrival's fate against the live backlog.
    fn admit_or_defer<P: Protocol>(
        &mut self,
        protocol: &mut P,
        api: &mut SimApi<P::Msg>,
        first_due: Round,
        v: NodeId,
    ) {
        let now = api.round();
        // A crashed node cannot originate its request: hold the arrival
        // until recovery. Silent (no `note_delayed`) — this is downtime,
        // not backpressure — but the original due round is preserved so
        // completion latency still counts the outage.
        if let Some(recover) = api.down_until(v) {
            self.defer(recover, first_due, v);
            return;
        }
        let decision = self.admission.decide_scoped(
            now,
            first_due,
            api.backlog(),
            api.shard_backlog(v),
            self.class_of(v),
        );
        match decision {
            Admission::Admit => {
                api.issue(v);
                inject(protocol, api, v);
            }
            Admission::Drop => {
                api.shed(v);
                let (shared, slice) = protocol.at(v);
                P::cancel(shared, slice, &mut api.at(v), v);
            }
            Admission::Retry { at } => {
                debug_assert!(at > now, "retry must be strictly later");
                api.note_delayed();
                self.defer(at, first_due, v);
            }
        }
    }

    /// Queue `v` for a retry at `at`, keeping (retry round, deferral
    /// order) sorted.
    fn defer(&mut self, at: Round, first_due: Round, v: NodeId) {
        let pos = self.retries.partition_point(|&(r, _, _)| r <= at);
        self.retries.insert(pos, (at, first_due, v));
    }

    /// The earliest round a scheduled arrival or an admission retry falls
    /// due — the only rounds [`Arrivals::issue_due`] has work at.
    pub(crate) fn next_due(&self) -> Option<Round> {
        let arrival = self.schedule.get(self.next).map(|&(r, _)| r);
        match (arrival, self.retries.first().map(|&(r, _, _)| r)) {
            (Some(a), Some(r)) => Some(a.min(r)),
            (a, r) => a.or(r),
        }
    }

    /// Issue, shed or defer every arrival due now: deferred arrivals first
    /// (they were due before anything newly scheduled this round), then
    /// the schedule tail. Re-deferrals land strictly after now, so they
    /// never re-enter this round's batch.
    pub(crate) fn issue_due<P: Protocol>(&mut self, protocol: &mut P, api: &mut SimApi<P::Msg>) {
        let now = api.round();
        let mut due = std::mem::take(&mut self.due);
        let retried = self.retries.partition_point(|&(r, _, _)| r <= now);
        due.extend(self.retries.drain(..retried).map(|(_, first_due, v)| (first_due, v)));
        let scheduled = self.schedule[self.next..].partition_point(|&(r, _)| r <= now);
        due.extend_from_slice(&self.schedule[self.next..self.next + scheduled]);
        self.next += scheduled;
        if !self.classes.is_empty() {
            self.prioritize(&mut due, now);
        }
        for &(first_due, v) in &due {
            self.admit_or_defer(protocol, api, first_due, v);
        }
        due.clear();
        self.due = due;
    }

    /// Reorder a same-round due batch by relaxed priority selection: each
    /// slot is filled by a power-of-two-choices draw — two candidates are
    /// sampled from the remaining batch with a stateless [`mix64`] draw and
    /// the better class wins (tie → earlier batch position). Stateless and
    /// keyed only on `(seed, round, slot, remaining)`, so every executor
    /// reorders identically and the token needs no extra fields. The
    /// relaxation (p2c rather than a full sort) mirrors relaxed-priority
    /// queue semantics: high classes go early with high probability, but
    /// strict global order is not promised.
    fn prioritize(&self, batch: &mut [(Round, NodeId)], now: Round) {
        for slot in 0..batch.len() {
            let remaining = (batch.len() - slot) as u64;
            let h = mix64(self.prio_seed, now, slot as u64, remaining);
            let i = slot + ((h >> 32) % remaining) as usize;
            let j = slot + ((h & 0xFFFF_FFFF) % remaining) as usize;
            let ci = self.class_of(batch[i].1);
            let cj = self.class_of(batch[j].1);
            let win = if (cj, j) < (ci, i) { j } else { i };
            // Bubble the winner into the slot, shifting the skipped-over
            // entries down one — preserves the relative order of the rest,
            // so ties keep schedule order.
            batch[slot..=win].rotate_right(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tests::Engine;
    use crate::protocol::SliceApi;
    use crate::{FaultPlan, Issue, SimConfig, SimReport, Simulator};

    fn nodes(n: usize) -> Vec<NodeId> {
        (0..n).collect()
    }

    fn check_complete(sched: &[(Round, NodeId)], n: usize) {
        assert_eq!(sched.len(), n);
        let mut seen: Vec<NodeId> = sched.iter().map(|&(_, v)| v).collect();
        seen.sort_unstable();
        assert_eq!(seen, nodes(n));
        assert!(sched.windows(2).all(|w| w[0].0 <= w[1].0), "rounds must be sorted");
    }

    #[test]
    fn batch_is_all_zero() {
        let s = ArrivalSpec::OneShot.materialize(&nodes(7));
        check_complete(&s, 7);
        assert!(s.iter().all(|&(r, _)| r == 0));
    }

    #[test]
    fn poisson_is_deterministic_and_complete() {
        let p = ArrivalSpec::Poisson { rate: 0.25, seed: 11 };
        let a = p.materialize(&nodes(40));
        let b = p.materialize(&nodes(40));
        assert_eq!(a, b);
        check_complete(&a, 40);
        // A different seed (almost surely) yields a different schedule.
        let c = ArrivalSpec::Poisson { rate: 0.25, seed: 12 }.materialize(&nodes(40));
        assert_ne!(a, c);
        // rate 1 ⇒ everything lands at round 0 (the batch special case).
        let dense = ArrivalSpec::Poisson { rate: 1.0, seed: 5 }.materialize(&nodes(10));
        assert!(dense.iter().all(|&(r, _)| r == 0));
    }

    #[test]
    fn poisson_rate_controls_spread() {
        let slow = ArrivalSpec::Poisson { rate: 0.05, seed: 7 }.materialize(&nodes(50));
        let fast = ArrivalSpec::Poisson { rate: 0.9, seed: 7 }.materialize(&nodes(50));
        assert!(slow.last().unwrap().0 > fast.last().unwrap().0);
    }

    #[test]
    fn bursty_respects_windows() {
        let p = ArrivalSpec::Bursty { rate: 1.0, on: 3, off: 10, seed: 1 };
        let s = p.materialize(&nodes(9));
        check_complete(&s, 9);
        // rate 1 on 3-on/10-off: arrivals at rounds 0,1,2, 13,14,15, 26,…
        for &(r, _) in &s {
            assert!(r % 13 < 3, "round {r} falls in an off window");
        }
    }

    #[test]
    fn hotspot_skews_early_arrivals_to_low_ids() {
        let mut early_front = 0usize;
        for seed in 0..40 {
            let s = ArrivalSpec::Hotspot { rate: 0.5, s: 2.5, seed }.materialize(&nodes(30));
            check_complete(&s, 30);
            if s[0].1 < 5 {
                early_front += 1;
            }
        }
        // With s = 2.5 the first arrival is one of the 5 lowest ids far
        // more often than the uniform 1/6 chance.
        assert!(early_front > 20, "only {early_front}/40 skewed fronts");
    }

    #[test]
    fn arrival_specs_name_and_reseed() {
        let p = ArrivalSpec::Poisson { rate: 0.2, seed: 1 };
        assert_eq!(p.name(), "poisson(rate=0.2,seed=1)");
        assert!(p.is_open());
        assert!(!ArrivalSpec::OneShot.is_open());
        assert_eq!(ArrivalSpec::OneShot.name(), "oneshot");
        assert_eq!(p.reseed(0), p);
        assert_ne!(p.reseed(1), p);
        assert_eq!(ArrivalSpec::OneShot.reseed(7), ArrivalSpec::OneShot);
        let b = ArrivalSpec::Bursty { rate: 0.5, on: 4, off: 8, seed: 2 };
        assert_eq!(b.name(), "bursty(rate=0.5,on=4,off=8,seed=2)");
        let h = ArrivalSpec::Hotspot { rate: 0.2, s: 1.1, seed: 3 };
        assert_eq!(h.name(), "hotspot(rate=0.2,s=1.1,seed=3)");
        // Reseeding keeps the shape, changes only the schedule seed.
        match h.reseed(2) {
            ArrivalSpec::Hotspot { rate, s, seed } => {
                assert_eq!((rate, s), (0.2, 1.1));
                assert_ne!(seed, 3);
            }
            other => panic!("reseed changed variant: {other:?}"),
        }
    }

    /// An operation completes the moment it issues, sending nothing.
    struct Instant([(); 3]);

    impl Protocol for Instant {
        type Msg = ();
        type Slice<'s> = &'s mut ();
        type Shared = ();
        fn nodes(&self) -> usize {
            self.0.len()
        }
        fn at(&mut self, v: NodeId) -> (&(), &mut ()) {
            (&(), &mut self.0[v])
        }
        fn requests(&self) -> &[NodeId] {
            &[1, 2]
        }
        fn issue(_: &(), _: &mut (), api: &mut SliceApi<()>, node: NodeId) {
            api.complete(node, 0);
        }
        fn on_message(_: &(), _: &mut (), _: &mut SliceApi<()>, _: NodeId, _: NodeId, _: ()) {}
    }

    /// `Instant` on the path 0–1–2, issued from `schedule`.
    fn run_instant(
        schedule: Vec<(Round, NodeId)>,
        faults: &FaultPlan,
    ) -> Result<SimReport, SimError> {
        let g = ccq_graph::topology::path(3);
        let sim = Simulator::new(&g, Instant([(); 3]), SimConfig::strict()).with_faults(faults);
        sim.with_arrivals(Arrivals::new(schedule)).run()
    }

    #[test]
    fn a_paced_arrival_at_a_crashed_node_waits_for_the_runs_recovery() {
        let faults = FaultPlan::none().crash(1, 1, 5);
        // Node 1 is due at round 2, inside its crash window; node 2 at 3.
        let report = run_instant(vec![(2, 1), (3, 2)], &faults).unwrap();
        assert_eq!(report.issues, [Issue { node: 2, round: 3 }, Issue { node: 1, round: 5 }]);
        assert_eq!(report.ops(), 2);
        // Downtime, not backpressure: no admission was delayed.
        assert_eq!(report.delayed_admissions, 0);
    }

    /// An operation sends its node's id to a neighbour when it issues and
    /// completes only when the test completes it.
    struct Echo([(); 4]);

    impl Protocol for Echo {
        type Msg = NodeId;
        type Slice<'s> = &'s mut ();
        type Shared = ();
        fn nodes(&self) -> usize {
            self.0.len()
        }
        fn at(&mut self, v: NodeId) -> (&(), &mut ()) {
            (&(), &mut self.0[v])
        }
        fn requests(&self) -> &[NodeId] {
            &[0, 1, 2]
        }
        fn issue(_: &(), _: &mut (), api: &mut SliceApi<NodeId>, node: NodeId) {
            api.send(if node == 0 { 1 } else { node - 1 }, node);
        }
        fn on_message(
            _: &(),
            _: &mut (),
            _: &mut SliceApi<NodeId>,
            _: NodeId,
            _: NodeId,
            _: NodeId,
        ) {
        }
    }

    /// Everything the arrivals phase could change: the arrivals' token,
    /// the report and every outbox.
    fn seen(arrivals: &Arrivals, e: &Engine<NodeId>) -> String {
        let outboxes: Vec<_> = (0..4).map(|v| e.outbox(v)).collect();
        format!("{} {:?} {outboxes:?}", arrivals.token(), e.report)
    }

    /// The arrivals phase enters its issue loop only from the next due
    /// round on; issuing at any earlier round changes nothing, which is
    /// what makes skipping those rounds safe.
    #[test]
    fn on_round_before_the_next_due_round_is_a_no_op() {
        let g = ccq_graph::topology::path(4);
        let mut e = Engine::new(4, None);
        e.faults = FaultPlan::none().crash(1, 2, 7);
        // Node 0 is due at 3. Node 1 is due at 4, inside its crash window:
        // it waits for its recovery at 7. Node 2 is due at 5, behind node
        // 0's open operation (bound 1, backoff 2): deferred to 7, then
        // behind node 1 to 9. The test completes node 0 at 6, node 1 at 8.
        let mut arrivals = Arrivals::new(vec![(3, 0), (4, 1), (5, 2)])
            .with_admission(AdmissionPolicy::DelayRetry { bound: 1, backoff: 2 });
        let mut echo = Echo([(); 4]);
        let mut acted = Vec::new();
        for round in 0..=12 {
            let completes = match round {
                6 => Some(0),
                8 => Some(1),
                _ => None,
            };
            if let Some(node) = completes {
                e.call(&g, round, |api| api.complete(node, 0));
            }
            let (due, before) = (arrivals.next_due(), seen(&arrivals, &e));
            e.call(&g, round, |api| arrivals.issue_due(&mut echo, api));
            if seen(&arrivals, &e) != before {
                acted.push(round);
            }
            if due.is_none_or(|due| due > round) {
                assert_eq!(seen(&arrivals, &e), before, "issued at {round}, before {due:?}");
            }
        }
        assert_eq!(acted, [3, 4, 5, 7, 9]);
        let issues = [(0, 3), (1, 7), (2, 9)].map(|(node, round)| Issue { node, round });
        assert_eq!(e.report.issues, issues);
        assert_eq!(e.report.delayed_admissions, 2);
        let sent: Vec<_> = (0..4).map(|v| e.outbox(v)).collect();
        assert_eq!(sent, [vec![(1, 0)], vec![(0, 1)], vec![(1, 2)], vec![]]);
        assert_eq!(arrivals.next_due(), None);
        assert!(e.error.is_none());
    }

    /// A schedule that names a node twice, or a node the graph lacks, is a
    /// configuration error of the run, not a panic.
    #[test]
    fn paced_rejects_duplicates() {
        let none = FaultPlan::none();
        let twice = run_instant(vec![(0, 1), (4, 1)], &none).unwrap_err();
        assert_eq!(twice, SimError::invalid_config("node 1 scheduled twice"));
        let missing = run_instant(vec![(0, 3)], &none).unwrap_err();
        let what = "node 3 is scheduled but the graph has 3 nodes";
        assert_eq!(missing, SimError::invalid_config(what));
    }
}
