//! Flattened per-run summaries and latency percentiles (the
//! queuing-vs-counting comparison lives in [`crate::plan::GroupSummary`]).

use ccq_graph::NodeId;
use ccq_sim::{nearest_rank, FaultEvent, FaultKind, SimReport};
use serde::Serialize;

/// Flattened per-run metrics.
#[derive(Clone, Debug, Default, Serialize)]
pub struct DelayReport {
    /// Algorithm display name.
    pub alg: String,
    /// Number of completed operations (`|R|`).
    pub ops: usize,
    /// Σ per-operation delays (scaled) — the paper's metric.
    pub total_delay: u64,
    /// Σ per-operation delays in raw rounds.
    pub total_delay_unscaled: u64,
    /// Largest single-operation delay (scaled).
    pub max_delay: u64,
    /// Mean per-operation delay (scaled).
    pub mean_delay: f64,
    /// Rounds until quiescence (unscaled).
    pub rounds: u64,
    /// Messages transmitted.
    pub messages: u64,
    /// Σ rounds messages spent queued at receivers (contention measure).
    pub queue_wait: u64,
    /// Deepest receive queue observed.
    pub max_queue: usize,
    /// Completed operations per round over the whole execution.
    pub throughput: f64,
    /// Median scaled completion latency (`completion − issue`; equals the
    /// per-operation delay for one-shot runs).
    pub latency_p50: u64,
    /// 95th-percentile scaled completion latency.
    pub latency_p95: u64,
    /// 99th-percentile scaled completion latency.
    pub latency_p99: u64,
    /// Open-operation backlog high-water mark (0 for one-shot runs).
    pub backlog_high_water: usize,
    /// Messages ferried across shard boundaries (0 when unsharded).
    pub cross_shard_messages: u64,
    /// Arrivals shed by admission control (0 under the open policy).
    pub dropped: u64,
    /// Admission deferrals recorded by a delaying policy.
    pub delayed_admissions: u64,
    /// Useful work per round: throughput discounted by the shed fraction
    /// of the offered load (equals `throughput` when nothing was shed).
    pub goodput: f64,
    /// Largest QQC rank displacement (0 without a verified output order).
    pub qqc_max: u64,
    /// Mean QQC rank displacement.
    pub qqc_mean: f64,
    /// Median QQC rank displacement.
    pub qqc_p50: u64,
    /// 95th-percentile QQC rank displacement.
    pub qqc_p95: u64,
    /// 99th-percentile QQC rank displacement.
    pub qqc_p99: u64,
}

impl DelayReport {
    /// Extract from a simulator report plus the verified output order the
    /// protocol's contract produced (queue order, rank order, or relaxed
    /// rank order), from which the QQC lateness distribution is derived
    /// (every QQC field reads 0 for an empty `order`).
    pub fn from_sim_with_order(alg: impl Into<String>, rep: &SimReport, order: &[NodeId]) -> Self {
        // Materialize and sort the latency distribution once; the three
        // percentiles are then plain nearest-rank index lookups.
        let mut lat = rep.latencies();
        lat.sort_unstable();
        let qqc = rep.qqc_lateness(order);
        DelayReport {
            alg: alg.into(),
            ops: rep.ops(),
            total_delay: rep.total_delay(),
            total_delay_unscaled: rep.total_delay_unscaled(),
            max_delay: rep.max_delay(),
            mean_delay: rep.mean_delay(),
            rounds: rep.rounds,
            messages: rep.messages_sent,
            queue_wait: rep.queue_wait_rounds,
            max_queue: rep.max_inport_depth,
            throughput: rep.throughput(),
            latency_p50: nearest_rank(&lat, 0.50),
            latency_p95: nearest_rank(&lat, 0.95),
            latency_p99: nearest_rank(&lat, 0.99),
            backlog_high_water: rep.backlog_high_water,
            cross_shard_messages: rep.cross_shard_messages,
            dropped: rep.dropped.len() as u64,
            delayed_admissions: rep.delayed_admissions,
            goodput: rep.goodput(),
            qqc_max: qqc.max,
            qqc_mean: qqc.mean,
            qqc_p50: qqc.p50,
            qqc_p95: qqc.p95,
            qqc_p99: qqc.p99,
        }
    }
}

/// Per-priority-class slice of one run's metrics: admission accounting
/// and completion-latency percentiles joined on the report's attached
/// class map ([`SimReport::node_class`]). Every field is total on
/// degenerate inputs — an all-shed class reports zero percentiles, never
/// a panic or a division by zero.
#[derive(Clone, Debug, Serialize)]
pub struct ClassMetrics {
    /// Priority class (0 = highest).
    pub class: u8,
    /// Operations issued by requesters of this class.
    pub issued: u64,
    /// Operations completed.
    pub completed: u64,
    /// Arrivals shed by admission control.
    pub dropped: u64,
    /// Median scaled completion latency within the class.
    pub latency_p50: u64,
    /// 95th-percentile scaled completion latency within the class.
    pub latency_p95: u64,
    /// 99th-percentile scaled completion latency within the class.
    pub latency_p99: u64,
    /// Largest QQC rank displacement within the class (0 without a
    /// verified output order — displacement is measured inside the class
    /// subsequence, so cross-class reordering is never charged here).
    pub qqc_max: u64,
    /// Mean QQC rank displacement within the class.
    pub qqc_mean: f64,
    /// Median QQC rank displacement within the class.
    pub qqc_p50: u64,
}

impl ClassMetrics {
    /// One entry per distinct class in the report's class map, ascending
    /// (empty when no class map was attached), with per-class QQC lateness
    /// derived from the verified output order (0 for an empty `order`).
    pub fn from_sim_with_order(rep: &SimReport, order: &[NodeId]) -> Vec<ClassMetrics> {
        // Join completions to issues once; each class then sorts its own
        // latencies once and reads its three percentiles off them.
        let latencies = rep.latencies();
        rep.classes()
            .into_iter()
            .map(|class| {
                let (issued, completed, dropped) = rep.class_counts(class);
                let qqc = rep.class_qqc_lateness(class, order);
                let mut lat: Vec<u64> = (rep.completions.iter().zip(&latencies))
                    .filter(|(c, _)| rep.class_of(c.node) == class)
                    .map(|(_, &l)| l)
                    .collect();
                lat.sort_unstable();
                ClassMetrics {
                    class,
                    issued,
                    completed,
                    dropped,
                    latency_p50: nearest_rank(&lat, 0.50),
                    latency_p95: nearest_rank(&lat, 0.95),
                    latency_p99: nearest_rank(&lat, 0.99),
                    qqc_max: qqc.max,
                    qqc_mean: qqc.mean,
                    qqc_p50: qqc.p50,
                }
            })
            .collect()
    }
}

/// Fault-injection accounting for one run: how many crash and recovery
/// events fired, and the events themselves.
#[derive(Clone, Debug, Serialize)]
pub struct FaultSummary {
    /// Crash events that fired.
    pub crashes: u64,
    /// Recovery events that fired (≤ `crashes`; a crash whose recovery
    /// lies past quiescence never recovers within the run).
    pub recoveries: u64,
    /// The events, sorted by `(round, node, kind)`.
    pub events: Vec<FaultEvent>,
}

impl FaultSummary {
    /// Extract from a report; `None` when no fault fired.
    pub fn from_sim(rep: &SimReport) -> Option<FaultSummary> {
        if rep.fault_events.is_empty() {
            return None;
        }
        let crashes = rep.fault_events.iter().filter(|e| e.kind == FaultKind::Crash).count() as u64;
        Some(FaultSummary {
            crashes,
            recoveries: rep.fault_events.len() as u64 - crashes,
            events: rep.fault_events.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_sim::Completion;

    fn dummy(total: u64) -> DelayReport {
        let rep = SimReport {
            delay_scale: 1,
            completions: vec![Completion { node: 0, value: 1, round: total }],
            ..Default::default()
        };
        DelayReport::from_sim_with_order("x", &rep, &[])
    }

    #[test]
    fn from_sim_flattens() {
        let d = dummy(7);
        assert_eq!(d.total_delay, 7);
        assert_eq!(d.ops, 1);
        assert_eq!(d.mean_delay, 7.0);
        // One-shot: latency percentiles collapse onto the delay.
        assert_eq!((d.latency_p50, d.latency_p95, d.latency_p99), (7, 7, 7));
        assert_eq!(d.backlog_high_water, 0);
        assert!(d.throughput > 0.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let rep = SimReport {
            delay_scale: 1,
            completions: (1..=10u64)
                .map(|r| Completion { node: r as usize, value: r, round: r })
                .collect(),
            ..Default::default()
        };
        assert_eq!(rep.latency_percentile(0.5), 5);
        assert_eq!(rep.latency_percentile(0.95), 10);
        assert_eq!(rep.latency_percentile(1.0), 10);
        assert_eq!(rep.latency_percentile(0.0), 1);
        let empty = SimReport { delay_scale: 1, ..Default::default() };
        assert_eq!(empty.latency_percentile(0.5), 0);
    }
}
