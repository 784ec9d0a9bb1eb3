//! Concrete request traces sampled from a rate model.
//!
//! The store prototype (§4.3) replays a sequence of user requests — event
//! shares and event-stream queries — against the data-store cluster.
//! [`RequestTrace`] samples such a sequence where user `u` shares with
//! probability proportional to `rp(u)` and queries proportional to `rc(u)`,
//! matching the stationary behaviour the cost model assumes.

use piggyback_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Rates;

/// One user request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// User shares a new event (update path).
    Share(NodeId),
    /// User requests its event stream (query path).
    Query(NodeId),
}

impl RequestKind {
    /// The user issuing the request.
    pub fn user(self) -> NodeId {
        match self {
            RequestKind::Share(u) | RequestKind::Query(u) => u,
        }
    }
}

/// A reproducible stream of requests distributed according to a [`Rates`]
/// workload.
///
/// Sampling uses Walker's alias method: O(1) per request — two table reads
/// instead of a binary search over a multi-megabyte cumulative array whose
/// cache misses would otherwise tax every operation of a load-generating
/// client. Deterministic for a fixed seed.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Alias table over the 2n outcomes: first all shares, then all
    /// queries. Entry `i` holds the probability of keeping outcome `i`
    /// (scaled to [0, 1]) and the alias taken otherwise.
    keep: Vec<f64>,
    alias: Vec<u32>,
    n: usize,
    rng: StdRng,
}

impl RequestTrace {
    /// Builds a trace sampler for the workload. Panics if every rate is zero.
    pub fn new(rates: &Rates, seed: u64) -> Self {
        let n = rates.len();
        let mut weights = Vec::with_capacity(2 * n);
        for u in 0..n {
            weights.push(rates.rp(u as NodeId));
        }
        for u in 0..n {
            weights.push(rates.rc(u as NodeId));
        }
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "workload has zero total rate");
        // Walker's construction: split outcomes into under- and over-full
        // relative to the uniform share, pair each under-full cell with an
        // over-full alias.
        let m = weights.len();
        let mut keep: Vec<f64> = weights.iter().map(|w| w * m as f64 / total).collect();
        let mut alias: Vec<u32> = (0..m as u32).collect();
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &k) in keep.iter().enumerate() {
            if k < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            keep[l as usize] -= 1.0 - keep[s as usize];
            if keep[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers are numerically ~1.0 and keep themselves — except a
        // zero-weight cell stranded by float drift, which must stay
        // unreachable: give it no keep mass and alias it to the heaviest
        // outcome so even the alias branch emits a legal request.
        let heaviest = (0..m)
            .max_by(|&a, &b| weights[a].total_cmp(&weights[b]))
            .expect("non-empty weights") as u32;
        for i in small.into_iter().chain(large) {
            if weights[i as usize] > 0.0 {
                keep[i as usize] = 1.0;
            } else {
                keep[i as usize] = 0.0;
                alias[i as usize] = heaviest;
            }
        }
        RequestTrace {
            keep,
            alias,
            n,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Samples the next request — O(1): one uniform draw picks a cell, a
    /// second decides between the cell and its alias.
    pub fn next_request(&mut self) -> RequestKind {
        let m = self.keep.len();
        let x: f64 = self.rng.random_range(0.0..m as f64);
        let cell = (x as usize).min(m - 1);
        let frac = x - cell as f64;
        let idx = if frac < self.keep[cell] {
            cell
        } else {
            self.alias[cell] as usize
        };
        if idx < self.n {
            RequestKind::Share(idx as NodeId)
        } else {
            RequestKind::Query((idx - self.n) as NodeId)
        }
    }

    /// Samples a batch of `count` requests.
    pub fn sample(&mut self, count: usize) -> Vec<RequestKind> {
        (0..count).map(|_| self.next_request()).collect()
    }
}

impl Iterator for RequestTrace {
    type Item = RequestKind;

    fn next(&mut self) -> Option<RequestKind> {
        Some(self.next_request())
    }
}

/// A request with an arrival time, produced by [`RequestTrace::timed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedRequest {
    /// Arrival time (abstract ticks, non-decreasing).
    pub time: u64,
    /// The request.
    pub request: RequestKind,
}

impl RequestTrace {
    /// Samples `count` requests with Poisson-ish arrival times at the given
    /// mean inter-arrival gap (a geometric approximation on integer ticks).
    /// Times are non-decreasing, suitable for the staleness simulator and
    /// latency experiments.
    pub fn timed(&mut self, count: usize, mean_gap: u64) -> Vec<TimedRequest> {
        assert!(mean_gap >= 1, "mean gap must be at least one tick");
        let mut out = Vec::with_capacity(count);
        let mut now = 0u64;
        for _ in 0..count {
            // Geometric(1/mean_gap) inter-arrival: memoryless on ticks.
            let mut gap = 0u64;
            while self.rng.random_range(0..mean_gap) != 0 {
                gap += 1;
            }
            now += gap;
            out.push(TimedRequest {
                time: now,
                request: self.next_request(),
            });
        }
        out
    }
}

/// One operation in an *online* trace: the share/query request mix of
/// [`RequestKind`] plus live topology churn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// User shares a new event (update path).
    Share(NodeId),
    /// User requests its event stream (query path).
    Query(NodeId),
    /// `v` starts following `u` (edge `u → v` appears).
    Follow(NodeId, NodeId),
    /// `v` stops following `u` (edge `u → v` disappears).
    Unfollow(NodeId, NodeId),
}

impl Op {
    /// Whether this operation mutates the social graph.
    pub fn is_churn(self) -> bool {
        matches!(self, Op::Follow(..) | Op::Unfollow(..))
    }
}

/// A reproducible interleaved stream of shares, queries, follows and
/// unfollows — the workload of an online feed-serving system, where
/// topology mutations arrive concurrently with reads and writes.
///
/// Requests follow the [`Rates`] workload exactly as [`RequestTrace`]
/// does; with probability `churn_ratio` an operation is instead a churn
/// op, split evenly between follows (a uniformly random new pair) and
/// unfollows (retracting a follow this trace issued earlier, so every
/// unfollow names an edge that plausibly exists). Deterministic for a
/// fixed seed.
#[derive(Clone, Debug)]
pub struct OpTrace {
    requests: RequestTrace,
    nodes: usize,
    churn_ratio: f64,
    rng: StdRng,
    /// Follows issued by this trace and not yet retracted (duplicate-free;
    /// `live_set` mirrors it for O(1) membership).
    live: Vec<(NodeId, NodeId)>,
    live_set: std::collections::HashSet<(NodeId, NodeId)>,
}

impl OpTrace {
    /// Builds an op sampler over `rates` with the given churn fraction.
    ///
    /// # Panics
    ///
    /// Panics if `churn_ratio` is outside `[0, 1]`, the workload covers
    /// fewer than two users, or every rate is zero.
    pub fn new(rates: &Rates, churn_ratio: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&churn_ratio),
            "churn ratio must be in [0, 1]"
        );
        assert!(rates.len() >= 2, "churn needs at least two users");
        OpTrace {
            requests: RequestTrace::new(rates, seed),
            nodes: rates.len(),
            churn_ratio,
            // Decorrelate the churn stream from the request stream.
            rng: StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            live: Vec::new(),
            live_set: std::collections::HashSet::new(),
        }
    }

    /// Samples the next operation.
    pub fn next_op(&mut self) -> Op {
        if self.churn_ratio > 0.0 && self.rng.random_bool(self.churn_ratio) {
            // Unfollow only what we followed; keeps churn edge-meaningful.
            if !self.live.is_empty() && self.rng.random_bool(0.5) {
                let i = self.rng.random_range(0..self.live.len());
                let (u, v) = self.live.swap_remove(i);
                self.live_set.remove(&(u, v));
                return Op::Unfollow(u, v);
            }
            loop {
                let u = self.rng.random_range(0..self.nodes) as NodeId;
                let v = self.rng.random_range(0..self.nodes) as NodeId;
                if u != v {
                    // A re-follow of a still-live pair is emitted (the
                    // runtime treats it as a no-op) but not tracked twice,
                    // so every unfollow retracts a distinct live follow.
                    if self.live_set.insert((u, v)) {
                        self.live.push((u, v));
                    }
                    return Op::Follow(u, v);
                }
            }
        }
        match self.requests.next_request() {
            RequestKind::Share(u) => Op::Share(u),
            RequestKind::Query(u) => Op::Query(u),
        }
    }

    /// Samples a batch of `count` operations.
    pub fn sample(&mut self, count: usize) -> Vec<Op> {
        (0..count).map(|_| self.next_op()).collect()
    }
}

impl Iterator for OpTrace {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(self.next_op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_query_mix_follows_ratio() {
        // rc/rp = 4 => about 80% queries.
        let rates = Rates::uniform(50, 1.0, 4.0);
        let mut t = RequestTrace::new(&rates, 7);
        let reqs = t.sample(20_000);
        let queries = reqs
            .iter()
            .filter(|r| matches!(r, RequestKind::Query(_)))
            .count();
        let frac = queries as f64 / reqs.len() as f64;
        assert!((frac - 0.8).abs() < 0.02, "query fraction {frac}");
    }

    #[test]
    fn zero_rate_users_never_appear() {
        let mut rp = vec![1.0; 10];
        let mut rc = vec![1.0; 10];
        rp[3] = 0.0;
        rc[3] = 0.0;
        let rates = Rates::from_vecs(rp, rc);
        let mut t = RequestTrace::new(&rates, 1);
        assert!(t.sample(5000).iter().all(|r| r.user() != 3));
    }

    #[test]
    fn deterministic_by_seed() {
        let rates = Rates::uniform(20, 1.0, 5.0);
        let a = RequestTrace::new(&rates, 9).sample(100);
        let b = RequestTrace::new(&rates, 9).sample(100);
        assert_eq!(a, b);
        let c = RequestTrace::new(&rates, 10).sample(100);
        assert_ne!(a, c);
    }

    #[test]
    fn heavy_user_dominates() {
        let mut rp = vec![0.01; 100];
        rp[42] = 100.0;
        let rates = Rates::from_vecs(rp, vec![0.01; 100]);
        let mut t = RequestTrace::new(&rates, 3);
        let hits = t
            .sample(2000)
            .iter()
            .filter(|r| **r == RequestKind::Share(42))
            .count();
        assert!(hits > 1800, "expected user 42 to dominate, got {hits}");
    }

    #[test]
    fn iterator_interface() {
        let rates = Rates::uniform(5, 1.0, 1.0);
        let t = RequestTrace::new(&rates, 0);
        assert_eq!(t.into_iter().take(10).count(), 10);
    }

    #[test]
    #[should_panic(expected = "zero total rate")]
    fn all_zero_rates_panic() {
        let rates = Rates::uniform(5, 0.0, 0.0);
        RequestTrace::new(&rates, 0);
    }

    #[test]
    fn timed_requests_are_ordered_with_plausible_gaps() {
        let rates = Rates::uniform(10, 1.0, 5.0);
        let mut t = RequestTrace::new(&rates, 4);
        let reqs = t.timed(5000, 10);
        assert_eq!(reqs.len(), 5000);
        assert!(reqs.windows(2).all(|w| w[0].time <= w[1].time));
        let span = reqs.last().unwrap().time - reqs[0].time;
        let mean_gap = span as f64 / 4999.0;
        // Geometric with success 1/10 has mean 9 failures per success.
        assert!(
            (6.0..13.0).contains(&mean_gap),
            "mean inter-arrival {mean_gap}"
        );
    }

    #[test]
    fn timed_deterministic() {
        let rates = Rates::uniform(5, 1.0, 1.0);
        let a = RequestTrace::new(&rates, 2).timed(50, 5);
        let b = RequestTrace::new(&rates, 2).timed(50, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn op_trace_respects_churn_ratio() {
        let rates = Rates::uniform(40, 1.0, 4.0);
        let mut t = OpTrace::new(&rates, 0.1, 5);
        let ops = t.sample(20_000);
        let churn = ops.iter().filter(|o| o.is_churn()).count();
        let frac = churn as f64 / ops.len() as f64;
        assert!((frac - 0.1).abs() < 0.01, "churn fraction {frac}");
        // The request mix inside the non-churn ops still follows rc/rp = 4.
        let queries = ops.iter().filter(|o| matches!(o, Op::Query(_))).count();
        let requests = ops.len() - churn;
        let qfrac = queries as f64 / requests as f64;
        assert!((qfrac - 0.8).abs() < 0.02, "query fraction {qfrac}");
    }

    #[test]
    fn op_trace_zero_churn_is_pure_requests() {
        let rates = Rates::uniform(10, 1.0, 5.0);
        let mut t = OpTrace::new(&rates, 0.0, 9);
        assert!(t.sample(5_000).iter().all(|o| !o.is_churn()));
    }

    #[test]
    fn op_trace_unfollows_only_prior_follows() {
        let rates = Rates::uniform(30, 1.0, 2.0);
        let mut t = OpTrace::new(&rates, 0.5, 13);
        let mut live = std::collections::HashSet::new();
        for op in t.sample(10_000) {
            match op {
                Op::Follow(u, v) => {
                    assert_ne!(u, v, "self-follows never sampled");
                    live.insert((u, v));
                }
                Op::Unfollow(u, v) => {
                    assert!(live.remove(&(u, v)), "unfollow of never-followed edge");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn op_trace_deterministic_by_seed() {
        let rates = Rates::uniform(25, 1.0, 5.0);
        let a = OpTrace::new(&rates, 0.2, 77).sample(2_000);
        let b = OpTrace::new(&rates, 0.2, 77).sample(2_000);
        assert_eq!(a, b);
        let c = OpTrace::new(&rates, 0.2, 78).sample(2_000);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "churn ratio")]
    fn op_trace_rejects_bad_ratio() {
        let rates = Rates::uniform(5, 1.0, 1.0);
        OpTrace::new(&rates, 1.5, 0);
    }
}
