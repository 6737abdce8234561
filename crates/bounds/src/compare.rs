//! Per-topology asymptotic verdicts: where does queuing provably beat
//! counting?

use crate::counting_lb::{counting_lb_diameter, counting_lb_general, star_serialization_lb};
use crate::queuing_ub::{nn_tsp_ub_general, nn_tsp_ub_list, nn_tsp_ub_perfect_binary};

/// The interconnection topologies the paper analyses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Topology {
    /// `K_n` — complete graph (Hamilton path ⇒ Theorem 4.5).
    Complete,
    /// The list / path graph (high diameter; Theorems 3.6 + 4.13).
    List,
    /// 2-D square mesh (Hamilton path, diameter `Θ(√n)`).
    Mesh2D,
    /// 3-D cubic mesh (Hamilton path).
    Mesh3D,
    /// Hypercube (Hamilton path via Gray code).
    Hypercube,
    /// Perfect binary tree as both network and spanning tree (Theorem 4.12).
    PerfectBinaryTree,
    /// The star — the §5 counter-example where counting is *not* harder.
    Star,
}

/// Outcome of the asymptotic comparison on a topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `C_Q(G) = o(C_C(G))` — queuing asymptotically cheaper.
    QueuingWins,
    /// Both complexities have the same order (the star: both `Θ(n²)`).
    Tie,
}

impl Topology {
    /// All supported topologies.
    pub fn all() -> [Topology; 7] {
        [
            Topology::Complete,
            Topology::List,
            Topology::Mesh2D,
            Topology::Mesh3D,
            Topology::Hypercube,
            Topology::PerfectBinaryTree,
            Topology::Star,
        ]
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Topology::Complete => "complete",
            Topology::List => "list",
            Topology::Mesh2D => "mesh-2d",
            Topology::Mesh3D => "mesh-3d",
            Topology::Hypercube => "hypercube",
            Topology::PerfectBinaryTree => "perfect-binary-tree",
            Topology::Star => "star",
        }
    }

    /// Which paper result decides this topology.
    pub fn deciding_result(self) -> &'static str {
        match self {
            Topology::Complete | Topology::Mesh2D | Topology::Mesh3D | Topology::Hypercube => {
                "Theorem 4.5 (Hamilton path) + Theorem 3.5"
            }
            Topology::List => "Theorem 4.13 / Lemma 4.3 + Theorem 3.6",
            Topology::PerfectBinaryTree => "Theorem 4.12 + Theorem 3.5",
            Topology::Star => "Section 5 (both Θ(n²))",
        }
    }

    /// Diameter of the topology at `n` vertices (approximate where the
    /// topology constrains `n`, e.g. meshes assume perfect powers).
    pub fn diameter(self, n: usize) -> u64 {
        match self {
            Topology::Complete => 1,
            Topology::List => n.saturating_sub(1) as u64,
            Topology::Mesh2D => 2 * ((n as f64).sqrt().ceil() as u64 - 1),
            Topology::Mesh3D => 3 * ((n as f64).cbrt().ceil() as u64 - 1),
            Topology::Hypercube => (usize::BITS - n.max(1).leading_zeros() - 1) as u64,
            Topology::PerfectBinaryTree => 2 * (usize::BITS - n.max(1).leading_zeros() - 1) as u64,
            Topology::Star => 2,
        }
    }

    /// Best applicable **lower bound on counting** at `n` vertices
    /// (all requesting): the max of Theorem 3.5, Theorem 3.6 and (for the
    /// star) the serialization bound.
    pub fn counting_lower_bound(self, n: usize) -> u64 {
        let general = counting_lb_general(n);
        let diam = counting_lb_diameter(self.diameter(n));
        let star = if self == Topology::Star { star_serialization_lb(n) } else { 0 };
        general.max(diam).max(star)
    }

    /// Best applicable **upper bound on queuing** at `n` vertices via the
    /// arrow protocol (2 × the topology-specific NN-TSP bound).
    pub fn queuing_upper_bound(self, n: usize) -> u64 {
        let tsp = match self {
            // Hamilton-path spanning tree: Lemma 4.3.
            Topology::Complete
            | Topology::Mesh2D
            | Topology::Mesh3D
            | Topology::Hypercube
            | Topology::List => nn_tsp_ub_list(n),
            Topology::PerfectBinaryTree => {
                let d = (usize::BITS - n.max(1).leading_zeros() - 1).max(1);
                nn_tsp_ub_perfect_binary(n, d)
            }
            // On the star everything serializes anyway; the general bound.
            Topology::Star => nn_tsp_ub_general(n, n),
        };
        crate::queuing_ub::arrow_ub_from_tsp(tsp)
    }
}

/// The paper's verdict for each topology.
pub fn verdict(t: Topology) -> Verdict {
    match t {
        Topology::Star => Verdict::Tie,
        _ => Verdict::QueuingWins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_is_the_only_tie() {
        for t in Topology::all() {
            let v = verdict(t);
            if t == Topology::Star {
                assert_eq!(v, Verdict::Tie);
            } else {
                assert_eq!(v, Verdict::QueuingWins);
            }
        }
    }

    #[test]
    fn diameters_reasonable() {
        assert_eq!(Topology::Complete.diameter(100), 1);
        assert_eq!(Topology::List.diameter(100), 99);
        assert_eq!(Topology::Hypercube.diameter(64), 6);
        assert_eq!(Topology::Star.diameter(100), 2);
        assert_eq!(Topology::Mesh2D.diameter(100), 18);
    }

    #[test]
    fn list_gap_grows_quadratically_over_linear() {
        // Theorem 3.6's C_C = Ω(n²) over Lemma 4.3's C_Q = O(n) on the
        // list: the gap C_C / C_Q should grow ~linearly in n.
        let gap = |n: usize| {
            Topology::List.counting_lower_bound(n) as f64
                / Topology::List.queuing_upper_bound(n) as f64
        };
        let (g1, g2) = (gap(1 << 10), gap(1 << 14));
        assert!(g2 > 8.0 * g1, "g1={g1} g2={g2}");
    }

    #[test]
    fn counting_lb_exceeds_queuing_ub_on_list_for_large_n() {
        // The crossover where Ω(n²/8) passes 6n.
        let n = 1 << 12;
        assert!(Topology::List.counting_lower_bound(n) > Topology::List.queuing_upper_bound(n));
    }

    #[test]
    fn star_bounds_are_both_quadratic() {
        let n1 = 1 << 8;
        let n2 = 1 << 9;
        let c1 = Topology::Star.counting_lower_bound(n1) as f64;
        let c2 = Topology::Star.counting_lower_bound(n2) as f64;
        assert!(c2 / c1 > 3.5 && c2 / c1 < 4.5);
    }

    #[test]
    fn all_bounds_positive_for_nontrivial_n() {
        for t in Topology::all() {
            assert!(t.counting_lower_bound(64) > 0, "{}", t.name());
            assert!(t.queuing_upper_bound(64) > 0, "{}", t.name());
        }
    }
}
