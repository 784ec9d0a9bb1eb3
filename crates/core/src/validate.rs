//! Feasibility checking: Theorem 1 says a schedule guarantees bounded
//! staleness iff every edge is a push, a pull, or piggybacked through a hub
//! whose two legs are themselves a push into and a pull out of the hub's
//! view. This module verifies that syntactically, edge by edge.

use piggyback_graph::{CsrGraph, EdgeId, NodeId, INVALID_EDGE};

use crate::schedule::{Schedule, NO_HUB};

/// Why a schedule fails bounded staleness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StalenessViolation {
    /// The edge is in none of `H`, `L`, `C`.
    Unserved {
        /// Offending edge.
        edge: EdgeId,
    },
    /// The edge is marked covered but no hub is recorded.
    MissingHub {
        /// Offending edge.
        edge: EdgeId,
    },
    /// The recorded hub does not satisfy Definition 4: either the triangle
    /// edges `u → w` / `w → v` do not exist, or they are not scheduled as
    /// push / pull respectively.
    BrokenHub {
        /// Offending edge.
        edge: EdgeId,
        /// The recorded hub.
        hub: NodeId,
    },
}

impl std::fmt::Display for StalenessViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StalenessViolation::Unserved { edge } => {
                write!(f, "edge {edge} is not served by any mechanism")
            }
            StalenessViolation::MissingHub { edge } => {
                write!(f, "edge {edge} is marked covered but has no hub")
            }
            StalenessViolation::BrokenHub { edge, hub } => {
                write!(f, "edge {edge} claims hub {hub} but Definition 4 fails")
            }
        }
    }
}

impl std::error::Error for StalenessViolation {}

/// Verifies that every edge of `g` is served per Theorem 1. Returns the
/// first violation found (in edge-id order).
pub fn validate_bounded_staleness(g: &CsrGraph, s: &Schedule) -> Result<(), StalenessViolation> {
    assert_eq!(
        g.edge_count(),
        s.edge_count(),
        "schedule/graph size mismatch"
    );
    for (e, u, v) in g.edges() {
        if s.is_push(e) || s.is_pull(e) {
            continue;
        }
        if !s.is_covered(e) {
            return Err(StalenessViolation::Unserved { edge: e });
        }
        let w = s.hub_of(e);
        if w == NO_HUB {
            return Err(StalenessViolation::MissingHub { edge: e });
        }
        // A hub past the graph (a hand-edited or foreign schedule file)
        // has no legs.
        if w as usize >= g.node_count() {
            return Err(StalenessViolation::BrokenHub { edge: e, hub: w });
        }
        let uw = g.edge_id(u, w);
        let wv = g.edge_id(w, v);
        let ok = uw != INVALID_EDGE && wv != INVALID_EDGE && s.is_push(uw) && s.is_pull(wv);
        if !ok {
            return Err(StalenessViolation::BrokenHub { edge: e, hub: w });
        }
    }
    Ok(())
}

/// Per-mechanism serving counts, for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoverageReport {
    /// Edges served by a push only.
    pub push: usize,
    /// Edges served by a pull only.
    pub pull: usize,
    /// Edges served by both a push and a pull.
    pub both: usize,
    /// Edges piggybacked through a hub.
    pub covered: usize,
    /// Unserved edges (infeasible if nonzero).
    pub unserved: usize,
}

/// Counts how each edge of `g` is served.
pub fn coverage_report(g: &CsrGraph, s: &Schedule) -> CoverageReport {
    let mut r = CoverageReport::default();
    for (e, _, _) in g.edges() {
        match (s.is_push(e), s.is_pull(e), s.is_covered(e)) {
            (true, true, _) => r.both += 1,
            (true, false, _) => r.push += 1,
            (false, true, _) => r.pull += 1,
            (false, false, true) => r.covered += 1,
            (false, false, false) => r.unserved += 1,
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use piggyback_graph::GraphBuilder;

    /// x=0, w=1, y=2 with edges x→w (e?), x→y, w→y.
    fn triangle() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        b.build()
    }

    #[test]
    fn valid_piggybacking_accepted() {
        let g = triangle();
        let mut s = Schedule::for_graph(&g);
        s.set_push(g.edge_id(0, 1)); // x pushes to hub
        s.set_pull(g.edge_id(1, 2)); // y pulls from hub
        s.set_covered(g.edge_id(0, 2), 1); // cross edge rides along
        validate_bounded_staleness(&g, &s).unwrap();
        let rep = coverage_report(&g, &s);
        assert_eq!(
            rep,
            CoverageReport {
                push: 1,
                pull: 1,
                both: 0,
                covered: 1,
                unserved: 0
            }
        );
    }

    #[test]
    fn unserved_edge_detected() {
        let g = triangle();
        let mut s = Schedule::for_graph(&g);
        s.set_push(g.edge_id(0, 1));
        s.set_pull(g.edge_id(1, 2));
        let err = validate_bounded_staleness(&g, &s).unwrap_err();
        assert_eq!(
            err,
            StalenessViolation::Unserved {
                edge: g.edge_id(0, 2)
            }
        );
    }

    #[test]
    fn hub_without_push_leg_detected() {
        let g = triangle();
        let mut s = Schedule::for_graph(&g);
        // Pull leg present, push leg only pulled: both legs must match roles.
        s.set_pull(g.edge_id(0, 1));
        s.set_pull(g.edge_id(1, 2));
        s.set_covered(g.edge_id(0, 2), 1);
        let err = validate_bounded_staleness(&g, &s).unwrap_err();
        assert!(matches!(err, StalenessViolation::BrokenHub { hub: 1, .. }));
    }

    #[test]
    fn hub_not_adjacent_detected() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 2); // the covered edge
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 0); // unrelated node 3
        let g = b.build();
        let mut s = Schedule::for_graph(&g);
        s.set_push(g.edge_id(0, 1));
        s.set_pull(g.edge_id(1, 2));
        s.set_push(g.edge_id(3, 0));
        s.set_covered(g.edge_id(0, 2), 3); // 3 is no common contact
        let err = validate_bounded_staleness(&g, &s).unwrap_err();
        assert!(matches!(err, StalenessViolation::BrokenHub { hub: 3, .. }));
    }

    #[test]
    fn hub_past_the_graph_detected() {
        let g = triangle();
        let mut s = Schedule::for_graph(&g);
        s.set_push(g.edge_id(0, 1));
        s.set_push(g.edge_id(0, 2));
        s.set_covered(g.edge_id(1, 2), 1000);
        let err = validate_bounded_staleness(&g, &s).unwrap_err();
        assert_eq!(
            err,
            StalenessViolation::BrokenHub {
                edge: g.edge_id(1, 2),
                hub: 1000
            }
        );
    }

    #[test]
    fn push_and_pull_legs_may_double_serve() {
        // The hub legs themselves are served edges; validator must accept
        // them as push / pull respectively.
        let g = triangle();
        let mut s = Schedule::for_graph(&g);
        s.set_push(g.edge_id(0, 1));
        s.set_pull(g.edge_id(0, 1)); // redundant but legal
        s.set_pull(g.edge_id(1, 2));
        s.set_covered(g.edge_id(0, 2), 1);
        validate_bounded_staleness(&g, &s).unwrap();
    }

    #[test]
    fn violation_display_strings() {
        let v = StalenessViolation::Unserved { edge: 3 };
        assert!(v.to_string().contains("edge 3"));
        let v = StalenessViolation::BrokenHub { edge: 1, hub: 9 };
        assert!(v.to_string().contains("hub 9"));
    }
}
