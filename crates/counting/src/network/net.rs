//! The balancing-network representation shared by all constructions, plus
//! sequential execution semantics and the step-property checker.

/// One balancer: consumes `in_a`/`in_b`, produces `out_top`/`out_bot`.
/// A one-input balancer (a toggle) has `in_a == in_b`.
#[derive(Clone, Copy, Debug)]
pub struct Balancer {
    /// First input wire id.
    pub in_a: usize,
    /// Second input wire id.
    pub in_b: usize,
    /// Output wire for the 1st, 3rd, … tokens.
    pub out_top: usize,
    /// Output wire for the 2nd, 4th, … tokens.
    pub out_bot: usize,
}

/// Where a wire segment leads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireDest {
    /// Into balancer `b` (index into [`BalancingNetwork::balancers`]).
    Balancer(usize),
    /// Out of the network at output position `j`.
    Output(usize),
}

/// How a token's message names its wire in its `Debug` form, which the
/// checkpoint digests hash.
#[derive(Clone, Copy, Debug)]
pub enum WireLabel {
    /// `wire`, in a counting network.
    Wire,
    /// `node_idx`, in a toggle tree (whose wire ids are heap indices).
    NodeIdx,
}

/// An immutable balancing network: a DAG of balancers between its input
/// wires and `width` output wires (in step-property order).
///
/// Wires are immutable segments: each balancer consumes one or two wire
/// ids and produces two fresh ones. Constructions live in
/// [`super::bitonic()`](super::bitonic()), [`super::periodic()`](super::periodic())
/// and [`super::toggle_tree()`](super::toggle_tree()).
#[derive(Clone, Debug)]
pub struct BalancingNetwork {
    pub(crate) balancers: Vec<Balancer>,
    /// Input wires are ids `0..input_wires`.
    pub(crate) input_wires: usize,
    pub(crate) outputs: Vec<usize>,
    /// Output position → the site whose `% n` hosts its exit counter.
    pub(crate) exit_site: Vec<usize>,
    pub(crate) wire_dest: Vec<WireDest>,
    pub(crate) depth: usize,
    pub(crate) name: &'static str,
    pub(crate) label: WireLabel,
}

/// Incremental builder used by the constructions.
pub(crate) struct Builder {
    pub(crate) balancers: Vec<Balancer>,
    pub(crate) input_wires: usize,
    pub(crate) wire_count: usize,
}

impl Builder {
    /// A builder over input wires `0..input_wires`, with room for
    /// `balancers` balancers.
    pub(crate) fn new(input_wires: usize, balancers: usize) -> Self {
        Builder { balancers: Vec::with_capacity(balancers), input_wires, wire_count: input_wires }
    }

    /// Add a balancer on wires `(in_a, in_b)`; returns its output wires.
    pub(crate) fn balancer(&mut self, in_a: usize, in_b: usize) -> (usize, usize) {
        let out_top = self.wire_count;
        let out_bot = self.wire_count + 1;
        self.wire_count += 2;
        self.balancers.push(Balancer { in_a, in_b, out_top, out_bot });
        (out_top, out_bot)
    }

    /// Finalize with the given output wire order. Each output's exit site
    /// is the balancer producing it.
    pub(crate) fn finish(self, outputs: Vec<usize>, name: &'static str) -> BalancingNetwork {
        let Builder { balancers, input_wires, wire_count } = self;
        let mut wire_dest = vec![WireDest::Output(usize::MAX); wire_count];
        for (bi, bal) in balancers.iter().enumerate() {
            wire_dest[bal.in_a] = WireDest::Balancer(bi);
            wire_dest[bal.in_b] = WireDest::Balancer(bi);
        }
        for (j, &w) in outputs.iter().enumerate() {
            wire_dest[w] = WireDest::Output(j);
        }
        let mut wire_depth = vec![0usize; wire_count];
        let mut exit_site = vec![usize::MAX; outputs.len()];
        let mut depth = 0;
        for (bi, bal) in balancers.iter().enumerate() {
            let d = wire_depth[bal.in_a].max(wire_depth[bal.in_b]) + 1;
            for out in [bal.out_top, bal.out_bot] {
                wire_depth[out] = d;
                if let WireDest::Output(j) = wire_dest[out] {
                    exit_site[j] = bi;
                }
            }
            depth = depth.max(d);
        }
        BalancingNetwork {
            balancers,
            input_wires,
            outputs,
            exit_site,
            wire_dest,
            depth,
            name,
            label: WireLabel::Wire,
        }
    }
}

impl BalancingNetwork {
    /// Network width `w`: its number of output wires.
    pub fn width(&self) -> usize {
        self.outputs.len()
    }

    /// Construction name (`"bitonic"` / `"periodic"` / `"toggle-tree"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// All balancers, topologically ordered.
    pub fn balancers(&self) -> &[Balancer] {
        &self.balancers
    }

    /// Wire id of input position `i`: the network's input wires are ids
    /// `0..k` (`k = w` for a counting network, one for a toggle tree) and
    /// position `i` enters on wire `i mod k`.
    pub fn input_wire(&self, i: usize) -> usize {
        i % self.input_wires
    }

    /// Wire id of output position `j`.
    pub fn output_wire(&self, j: usize) -> usize {
        self.outputs[j]
    }

    /// Destination of a wire id.
    pub fn wire_dest(&self, wire: usize) -> WireDest {
        self.wire_dest[wire]
    }

    /// Longest balancer chain.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The site whose index `% n` hosts output `j`'s exit counter: the
    /// balancer producing the output wire, or in a toggle tree the leaf's
    /// heap index.
    pub fn exit_site(&self, j: usize) -> usize {
        self.exit_site[j]
    }
}

/// Sequential executor: feeds whole tokens one at a time (used to validate
/// constructions independently of the simulator).
pub struct SeqNetwork<'n> {
    net: &'n BalancingNetwork,
    toggles: Vec<bool>,
    exit_counts: Vec<u64>,
}

impl<'n> SeqNetwork<'n> {
    /// Fresh executor with all balancers pointing at their top outputs.
    pub fn new(net: &'n BalancingNetwork) -> Self {
        SeqNetwork {
            net,
            toggles: vec![false; net.balancers.len()],
            exit_counts: vec![0; net.width()],
        }
    }

    /// Push one token into input position `i`; returns its output position.
    pub fn feed(&mut self, i: usize) -> usize {
        let mut wire = self.net.input_wire(i);
        loop {
            match self.net.wire_dest[wire] {
                WireDest::Balancer(b) => {
                    let bal = &self.net.balancers[b];
                    wire = if self.toggles[b] { bal.out_bot } else { bal.out_top };
                    self.toggles[b] = !self.toggles[b];
                }
                WireDest::Output(j) => {
                    self.exit_counts[j] += 1;
                    return j;
                }
            }
        }
    }

    /// Push one token and return the **count** it acquires
    /// (`j + 1 + (c−1)·w` for the `c`-th token on output `j`).
    pub fn next_count(&mut self, i: usize) -> u64 {
        let j = self.feed(i);
        (j as u64 + 1) + (self.exit_counts[j] - 1) * self.net.width() as u64
    }

    /// Tokens seen so far per output wire.
    pub fn exit_counts(&self) -> &[u64] {
        &self.exit_counts
    }
}

/// The step property: `0 ≤ yᵢ − yⱼ ≤ 1` for every `i < j`.
pub fn has_step_property(counts: &[u64]) -> bool {
    counts.windows(2).all(|w| w[0] >= w[1])
        && counts.first().copied().unwrap_or(0) <= counts.last().copied().unwrap_or(0) + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_property_checker() {
        assert!(has_step_property(&[2, 2, 1, 1]));
        assert!(has_step_property(&[3, 3, 3, 3]));
        assert!(has_step_property(&[1, 0, 0, 0]));
        assert!(!has_step_property(&[2, 0, 0, 0]));
        assert!(!has_step_property(&[1, 2, 1, 1]));
        assert!(has_step_property(&[]));
    }

    #[test]
    fn builder_wires_are_unique() {
        let mut b = Builder::new(2, 1);
        let (t, bt) = b.balancer(0, 1);
        assert_eq!((t, bt), (2, 3));
        let net = b.finish(vec![t, bt], "test");
        assert_eq!(net.depth(), 1);
        assert_eq!(net.balancers().len(), 1);
        assert_eq!(net.wire_dest(0), WireDest::Balancer(0));
        assert_eq!(net.wire_dest(2), WireDest::Output(0));
    }
}
