//! Explicit routes for source-routed protocol messages.
//!
//! Multi-hop messages in the simulator (central-counter replies,
//! counting-network token hops) carry a precomputed [`Route`]: the full
//! vertex sequence they will traverse. Routes are built once per scenario
//! from the spanning tree ([`crate::Tree::path`]), so the simulator never
//! needs per-node routing tables.

use crate::NodeId;

/// A hop-by-hop route: consecutive vertices are adjacent in the routing
/// substrate (tree or graph). `route[0]` is the source, `route.last()` the
/// destination; a length-1 route is a self-delivery.
pub type Route = Vec<NodeId>;

/// A table of routes, shared by protocol messages as `(route id, hop index)`.
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    routes: Vec<Route>,
}

impl RouteTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a route, returning its id.
    ///
    /// # Panics
    /// Panics on an empty route.
    pub fn push(&mut self, route: Route) -> usize {
        assert!(!route.is_empty(), "empty route");
        self.routes.push(route);
        self.routes.len() - 1
    }

    /// Route by id.
    #[inline]
    pub fn get(&self, id: usize) -> &Route {
        &self.routes[id]
    }

    /// Number of routes stored.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_table_roundtrip() {
        let mut tab = RouteTable::new();
        let a = tab.push(vec![0, 1, 2]);
        let b = tab.push(vec![3]);
        assert_eq!(tab.get(a), &vec![0, 1, 2]);
        assert_eq!(tab.get(b), &vec![3]);
        assert_eq!(tab.len(), 2);
    }
}
