//! The cluster topology: which data-store server owns each user's view.
//!
//! Every layer that needs shard ownership — the multi-server cost model
//! (`piggyback_core::cost::CostModel::batched`, fed by
//! [`Topology::assignment`]), the wire-format worker protocol
//! ([`crate::worker`]) and the online serve runtime — routes through one
//! [`Topology`]: a server count plus a flat `user → shard` array
//! (CSR-style flat storage instead of per-user hash maps, after the
//! in-memory graph-analytics playbook). The paper's prototype hashes users
//! to random servers (§4.3); that policy is now one of the two
//! [`Partitioner`]s listed once in [`PartitionStrategy::ALL`].
//!
//! Partitioners:
//!
//! * [`HashPartitioner`] — the paper's baseline: `FxHash(seed, user) mod
//!   servers`. Stateless, perfectly balanced in expectation, cost-blind.
//! * [`LdgPartitioner`] — streaming Linear Deterministic Greedy: each user
//!   joins the shard holding most of its neighbors, damped by a capacity
//!   penalty. Graph-aware, schedule-blind.
//!
//! The store sends one message per distinct server a request touches, and
//! `CostModel::batched` prices that bill (`piggyback partition` prints it
//! for every partitioner). LDG bills fewer messages per request than hash
//! (`crates/store/tests/topology_properties.rs` holds it to that). Neither
//! partitioner reads the schedule yet.

use piggyback_core::schedule::Schedule;
use piggyback_graph::fx::FxHasher;
use piggyback_graph::{CsrGraph, NodeId};
use piggyback_workload::Rates;
use std::hash::Hasher;

/// The cluster topology: `servers` data-store servers and the home server
/// of every user's view, stored as a flat array indexed by user id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    servers: usize,
    shard_of: Vec<u32>,
    /// Replica slots per view (1 = primary only). With trivial domains,
    /// slot `i` of user `u` is `(primary + i) mod servers`; with a
    /// non-trivial failure-domain map the slots are domain-spread (see
    /// [`Topology::with_domains`]).
    replication: usize,
    /// Failure-domain (rack/zone) of each server. Empty = trivial: every
    /// server is its own domain, which reproduces the round-robin slot
    /// formula bit for bit.
    domains: Vec<u32>,
    /// Precomputed domain-spread replica slots, `servers × replication`,
    /// indexed by primary server. Empty when domains are trivial or
    /// replication is 1 — the round-robin formula is used directly.
    spread: Vec<u32>,
}

/// Reusable buffers for [`Topology::group_by_server_with`]: the tagged
/// `(server, view)` list and the per-server view batch. Owned by hot-path
/// callers (one per client/worker) so per-operation grouping never
/// allocates once warmed up.
#[derive(Debug, Default)]
pub struct GroupScratch {
    tagged: Vec<(usize, NodeId)>,
    views: Vec<NodeId>,
}

/// The paper's hash placement: `FxHash(seed, user) mod servers`.
///
/// Fx ends in a multiply by an odd constant, which maps the low `b` bits of
/// its input one-to-one onto the low `b` bits of the product. So with a
/// power-of-two server count `2^b` the shard depends only on the user id's
/// low `b` bits, and every user on one shard shares them. This is why a
/// shard's view map hashes its keys with its own hasher
/// (`server::ViewHasher`) rather than plain Fx.
#[inline]
pub(crate) fn hash_server_of(user: NodeId, servers: usize, seed: u64) -> usize {
    let mut h = FxHasher::default();
    h.write_u64(seed);
    h.write_u32(user);
    (h.finish() % servers as u64) as usize
}

impl Topology {
    /// Wraps an explicit assignment. Every entry must be `< servers`.
    pub fn from_assignment(shard_of: Vec<u32>, servers: usize) -> Self {
        assert!(servers >= 1, "need at least one server");
        debug_assert!(shard_of.iter().all(|&s| (s as usize) < servers));
        Topology {
            servers,
            shard_of,
            replication: 1,
            domains: Vec::new(),
            spread: Vec::new(),
        }
    }

    /// Hash-random placement of `users` views onto `servers` servers —
    /// the paper's §4.3 baseline. Deterministic for a fixed `seed`.
    pub fn hash(users: usize, servers: usize, seed: u64) -> Self {
        assert!(servers >= 1, "need at least one server");
        let shard_of = (0..users as NodeId)
            .map(|u| hash_server_of(u, servers, seed) as u32)
            .collect();
        Topology::from_assignment(shard_of, servers)
    }

    /// Everything on one server (tests and degenerate configurations).
    pub fn single_server(users: usize) -> Self {
        Topology::from_assignment(vec![0; users], 1)
    }

    /// Sets the replica-slot count (≥ 1). Replication beyond the number of
    /// distinct failure domains is rejected: replica slots beyond the
    /// domain count would have to co-locate (same machine with trivial
    /// domains, same rack/zone otherwise), adding cost but no fault
    /// tolerance. Panics with a clear message instead of silently
    /// clamping into co-location.
    pub fn with_replication(mut self, replication: usize) -> Self {
        assert!(replication >= 1, "need at least one replica slot");
        self.replication = replication;
        self.finalize_replicas()
    }

    /// Assigns each server to a failure domain (rack/zone). `domains[s]`
    /// is the domain of server `s`; the map must cover every server.
    /// With a non-trivial map, replica slots are **domain-spread**: slot
    /// selection scans forward from the primary skipping servers whose
    /// domain is already used, so no two replica slots of a view share a
    /// domain and a whole-domain failure can never take out every copy.
    /// With the trivial map (every server its own domain) the slots are
    /// bit-identical to the round-robin formula.
    pub fn with_domains(mut self, domains: Vec<u32>) -> Self {
        assert_eq!(
            domains.len(),
            self.servers,
            "domain map must cover every server"
        );
        self.domains = domains;
        self.finalize_replicas()
    }

    /// Contiguous-block domain map: `servers` servers split into
    /// `ndomains` equal racks (server `s` → domain `s * ndomains /
    /// servers`). The standard layout for the fault matrix.
    pub fn block_domains(servers: usize, ndomains: usize) -> Vec<u32> {
        assert!(ndomains >= 1 && ndomains <= servers);
        (0..servers)
            .map(|s| (s * ndomains / servers) as u32)
            .collect()
    }

    /// Validates replication against the domain map and precomputes the
    /// domain-spread slot table. Shared tail of [`Topology::with_replication`]
    /// and [`Topology::with_domains`].
    fn finalize_replicas(mut self) -> Self {
        let distinct = self.distinct_domains();
        assert!(
            self.replication <= distinct,
            "replication factor {} exceeds the {} distinct failure domains \
             ({} servers): extra replicas would co-locate in one domain and \
             add cost without fault tolerance — lower the replication factor \
             or spread servers over more domains",
            self.replication,
            distinct,
            self.servers
        );
        self.spread.clear();
        if self.replication > 1 && !self.domains.is_empty() {
            self.spread.reserve(self.servers * self.replication);
            let mut used: Vec<u32> = Vec::with_capacity(self.replication);
            for primary in 0..self.servers {
                used.clear();
                for off in 0..self.servers {
                    let s = (primary + off) % self.servers;
                    let d = self.domains[s];
                    if !used.contains(&d) {
                        used.push(d);
                        self.spread.push(s as u32);
                        if used.len() == self.replication {
                            break;
                        }
                    }
                }
                debug_assert_eq!(used.len(), self.replication);
            }
        }
        self
    }

    /// The failure-domain map (`domains[s]` = domain of server `s`).
    /// Empty when trivial (every server its own domain).
    pub fn domains(&self) -> &[u32] {
        &self.domains
    }

    /// Failure domain of a server under the current map.
    #[inline]
    pub fn domain_of(&self, server: usize) -> u32 {
        if self.domains.is_empty() {
            server as u32
        } else {
            self.domains[server]
        }
    }

    /// Number of distinct failure domains (`servers` when trivial).
    pub fn distinct_domains(&self) -> usize {
        if self.domains.is_empty() {
            return self.servers;
        }
        let mut seen = self.domains.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Number of users covered by the partition map.
    pub fn users(&self) -> usize {
        self.shard_of.len()
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Replica slots per view (1 = primary only).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The server holding `user`'s (primary) view.
    #[inline]
    pub fn server_of(&self, user: NodeId) -> usize {
        self.shard_of[user as usize] as usize
    }

    /// The replica slots of `user`'s view, primary first. Round-robin from
    /// the primary with trivial domains; domain-spread otherwise (no two
    /// slots share a failure domain).
    pub fn replica_slots(&self, user: NodeId) -> impl Iterator<Item = usize> + '_ {
        let primary = self.server_of(user);
        let spread = (!self.spread.is_empty())
            .then(|| &self.spread[primary * self.replication..][..self.replication]);
        (0..self.replication).map(move |i| match spread {
            Some(slots) => slots[i] as usize,
            None => (primary + i) % self.servers,
        })
    }

    /// The raw `user → shard` array — the interchange format for
    /// topology-aware cost accounting (`piggyback_core::cost::CostModel`).
    pub fn assignment(&self) -> &[u32] {
        &self.shard_of
    }

    /// Number of distinct servers holding the given views (the message
    /// count of one batched request touching all of them).
    pub fn distinct_servers(&self, views: impl IntoIterator<Item = NodeId>) -> usize {
        // Few views per request: a tiny sorted vec beats a hash set.
        let mut seen: Vec<usize> = views.into_iter().map(|v| self.server_of(v)).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Groups `targets` by home server and invokes `f(server, views)` once
    /// per touched server — the one batched message per server of
    /// Algorithm 3, and the single shard-ownership derivation every request
    /// shares. The scratch is caller-owned: the hot serving path calls this
    /// once per operation, and a warmed-up scratch makes the grouping
    /// allocation-free.
    pub fn group_by_server_with(
        &self,
        targets: &[NodeId],
        scratch: &mut GroupScratch,
        f: impl FnMut(usize, &[NodeId]),
    ) {
        scratch.tagged.clear();
        scratch
            .tagged
            .extend(targets.iter().map(|&v| (self.server_of(v), v)));
        emit_grouped(scratch, f);
    }

    /// Replicated-write grouping: every target is tagged with *all* of its
    /// replica slots, still one batch per touched shard. With
    /// `replication == 1` this degenerates to exactly
    /// [`group_by_server_with`](Topology::group_by_server_with) — same
    /// batches, same order.
    pub fn group_by_replica_server_with(
        &self,
        targets: &[NodeId],
        scratch: &mut GroupScratch,
        f: impl FnMut(usize, &[NodeId]),
    ) {
        scratch.tagged.clear();
        for &v in targets {
            for s in self.replica_slots(v) {
                scratch.tagged.push((s, v));
            }
        }
        emit_grouped(scratch, f);
    }

    /// Read-routing grouping: each target goes to the single slot chosen
    /// by `pick` (the healthiest readable replica), one batch per chosen
    /// shard. When `pick` is the primary this is byte-identical to
    /// [`group_by_server_with`](Topology::group_by_server_with).
    pub fn group_by_picked_server_with(
        &self,
        targets: &[NodeId],
        scratch: &mut GroupScratch,
        mut pick: impl FnMut(NodeId) -> usize,
        f: impl FnMut(usize, &[NodeId]),
    ) {
        scratch.tagged.clear();
        scratch.tagged.extend(targets.iter().map(|&v| (pick(v), v)));
        emit_grouped(scratch, f);
    }

    /// Users per shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.servers];
        for &s in &self.shard_of {
            sizes[s as usize] += 1;
        }
        sizes
    }

    /// Users whose home server differs between `self` and `next` — the
    /// views a live migration must re-home.
    pub fn moved_users(&self, next: &Topology) -> Vec<NodeId> {
        assert_eq!(
            self.users(),
            next.users(),
            "topologies cover different user sets"
        );
        (0..self.users() as NodeId)
            .filter(|&u| self.server_of(u) != next.server_of(u))
            .collect()
    }

    /// This topology routed around the servers marked in `dead`: every
    /// user whose primary is dead is re-pointed at its first surviving
    /// replica slot. Server count, replication and the domain map carry
    /// over untouched — the spread table is indexed by primary, so the
    /// replica slots of a re-homed user stay domain-spread. A user whose
    /// every slot is dead stays on its dead primary and is not in
    /// [`Repair::moved`]: exactly what domain-blind placement risks under a
    /// whole-domain kill and domain-spread placement rules out.
    pub fn repaired(&self, dead: &[bool]) -> Repair {
        let mut topology = self.clone();
        let mut moved = Vec::new();
        for u in 0..self.users() as NodeId {
            if !dead[self.server_of(u)] {
                continue;
            }
            if let Some(next) = self.replica_slots(u).find(|&r| !dead[r]) {
                topology.shard_of[u as usize] = next as u32;
                moved.push(u);
            }
        }
        Repair { topology, moved }
    }
}

/// Outcome of [`Topology::repaired`].
#[derive(Clone, Debug)]
pub struct Repair {
    /// The repaired map.
    pub topology: Topology,
    /// Users re-pointed at a surviving replica slot, ascending. A user
    /// whose primary died and who is not here has no surviving slot.
    pub moved: Vec<NodeId>,
}

/// Sorts the pre-tagged `(server, view)` pairs in `scratch` and emits one
/// `f(server, views)` run per server — the shared tail of every grouping
/// flavor above.
fn emit_grouped(scratch: &mut GroupScratch, mut f: impl FnMut(usize, &[NodeId])) {
    let tagged = &mut scratch.tagged;
    tagged.sort_unstable();
    let views = &mut scratch.views;
    let mut i = 0;
    while i < tagged.len() {
        let server = tagged[i].0;
        views.clear();
        while i < tagged.len() && tagged[i].0 == server {
            views.push(tagged[i].1);
            i += 1;
        }
        f(server, views);
    }
}

/// Number of graph edges whose endpoints live on different servers.
pub fn edges_cut(g: &CsrGraph, t: &Topology) -> usize {
    g.edges()
        .filter(|&(_, u, v)| t.server_of(u) != t.server_of(v))
        .count()
}

/// One partitioning problem: the graph, its workload, and (optionally) the
/// optimized schedule the placement will serve.
#[derive(Clone, Copy, Debug)]
pub struct PartitionRequest<'a> {
    /// The social graph.
    pub graph: &'a CsrGraph,
    /// Per-user rates (must cover every graph node; may cover more users —
    /// the serve runtime admits churn up to the rate model's width).
    pub rates: &'a Rates,
    /// The optimized push/pull schedule, if one exists. No registered
    /// partitioner reads it yet: it is the input a partitioner minimizing
    /// the batched bill under the schedule would weigh.
    pub schedule: Option<&'a Schedule>,
    /// Number of servers to partition onto.
    pub servers: usize,
    /// Determinism seed (hash placement, tie-breaking).
    pub seed: u64,
    /// Failure-domain map (`domains[s]` = rack/zone of server `s`), or
    /// `None` for the trivial every-server-its-own-domain layout. Every
    /// partitioner threads this into the produced topology, which makes
    /// replica slots domain-spread (see [`Topology::with_domains`]).
    pub domains: Option<&'a [u32]>,
}

impl PartitionRequest<'_> {
    /// Users the produced topology must cover: every graph node plus every
    /// user the rate model admits.
    pub fn users(&self) -> usize {
        self.graph.node_count().max(self.rates.len())
    }

    /// Applies the request's failure-domain map to a finished topology —
    /// the shared tail every partitioner routes through so that
    /// domain-spread placement holds regardless of strategy.
    pub fn apply_domains(&self, topology: Topology) -> Topology {
        match self.domains {
            Some(d) => topology.with_domains(d.to_vec()),
            None => topology,
        }
    }
}

/// A view-placement policy: maps a [`PartitionRequest`] to a [`Topology`].
///
/// Every implementation must be deterministic for a fixed request (same
/// graph, rates, schedule, servers, seed ⇒ identical topology) — replays
/// and distributed consumers rely on it.
pub trait Partitioner: Send + Sync {
    /// Computes the topology.
    fn partition(&self, req: &PartitionRequest) -> Topology;
}

/// The paper's baseline: hash-random placement (§4.3). Cost-blind.
#[derive(Clone, Copy, Debug, Default)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn partition(&self, req: &PartitionRequest) -> Topology {
        req.apply_domains(Topology::hash(req.users(), req.servers, req.seed))
    }
}

/// LDG's headroom over perfect balance: no shard takes more than
/// `⌈users · 1.05 / servers⌉` users.
const DEFAULT_SLACK: f64 = 1.05;

/// Streaming Linear Deterministic Greedy: users stream in id order, and
/// user `u` joins the shard `s` maximizing `|N(u) ∩ s| · (1 − load(s) /
/// capacity)` among shards with spare capacity, falling back to the
/// least-loaded shard when no placed neighbor exists. Neighborhoods count
/// both follow directions, a parallel edge once per copy. Ignores the
/// schedule.
#[derive(Clone, Copy, Debug, Default)]
pub struct LdgPartitioner;

impl Partitioner for LdgPartitioner {
    fn partition(&self, req: &PartitionRequest) -> Topology {
        assert!(req.servers >= 1, "need at least one server");
        let (g, servers, users) = (req.graph, req.servers, req.users());
        if servers == 1 {
            return req.apply_domains(Topology::single_server(users));
        }
        let capacity = (((users as f64) * DEFAULT_SLACK / servers as f64).ceil() as usize).max(1);
        const UNPLACED: u32 = u32::MAX;
        let mut assignment = vec![UNPLACED; users];
        let mut load = vec![0usize; servers];
        // Placed neighbors per shard, and the shards holding any.
        let mut score = vec![0u32; servers];
        let mut touched: Vec<usize> = Vec::new();
        for u in 0..users {
            // Users the rate model admits beyond the graph have no
            // neighbors. A self-loop finds `u` itself still unplaced.
            if u < g.node_count() {
                let id = u as NodeId;
                for &v in g.out_neighbors(id).iter().chain(g.in_neighbors(id)) {
                    let s = assignment[v as usize];
                    if s != UNPLACED {
                        if score[s as usize] == 0 {
                            touched.push(s as usize);
                        }
                        score[s as usize] += 1;
                    }
                }
            }
            let mut best: Option<(f64, usize)> = None;
            for &s in &touched {
                if load[s] >= capacity {
                    continue;
                }
                let damped = score[s] as f64 * (1.0 - load[s] as f64 / capacity as f64);
                let better = match best {
                    None => damped > 0.0,
                    Some((b, bs)) => damped > b || (damped == b && s < bs),
                };
                if better {
                    best = Some((damped, s));
                }
            }
            let target = match best {
                Some((_, s)) => s,
                None => {
                    // Least-loaded shard, lowest index on ties; among shards
                    // with room if any (the slack usually guarantees one).
                    let mut t = 0;
                    let mut t_fits = load[0] < capacity;
                    for c in 1..servers {
                        let fits = load[c] < capacity;
                        if (fits && !t_fits) || (fits == t_fits && load[c] < load[t]) {
                            t = c;
                            t_fits = fits;
                        }
                    }
                    t
                }
            };
            assignment[u] = target as u32;
            load[target] += 1;
            for &s in &touched {
                score[s] = 0;
            }
            touched.clear();
        }
        req.apply_domains(Topology::from_assignment(assignment, servers))
    }
}

/// The partitioner registry: every strategy, its name and its
/// partitioner. `Copy`, so configuration structs can hold one (the serve
/// runtime's [`ServeConfig`] stays `Copy`).
///
/// [`ServeConfig`]: ../../piggyback_serve/struct.ServeConfig.html
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// [`HashPartitioner`] — the paper's baseline.
    #[default]
    Hash,
    /// [`LdgPartitioner`].
    Ldg,
}

impl PartitionStrategy {
    /// Every registered strategy, baseline first, in a stable order.
    pub const ALL: [PartitionStrategy; 2] = [PartitionStrategy::Hash, PartitionStrategy::Ldg];

    /// The strategy's partitioner.
    pub fn partitioner(self) -> Box<dyn Partitioner> {
        match self {
            PartitionStrategy::Hash => Box::new(HashPartitioner),
            PartitionStrategy::Ldg => Box::new(LdgPartitioner),
        }
    }

    /// Registry name of the strategy's partitioner.
    pub fn name(self) -> &'static str {
        match self {
            PartitionStrategy::Hash => "hash",
            PartitionStrategy::Ldg => "ldg",
        }
    }

    /// Parses a registry name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piggyback_graph::gen::{copying, CopyingConfig};

    fn world() -> (CsrGraph, Rates) {
        let g = copying(CopyingConfig {
            nodes: 300,
            follows_per_node: 6,
            copy_prob: 0.8,
            seed: 14,
        });
        let r = Rates::log_degree(&g, 5.0);
        (g, r)
    }

    #[test]
    fn hash_is_deterministic_and_in_range() {
        let t = Topology::hash(100, 16, 7);
        let again = Topology::hash(100, 16, 7);
        assert_eq!(t, again);
        for u in 0..100 {
            assert!(t.server_of(u) < 16);
        }
    }

    #[test]
    fn different_seeds_reshuffle_hash_placement() {
        let a = Topology::hash(1000, 64, 1);
        let b = Topology::hash(1000, 64, 2);
        let moved = a.moved_users(&b).len();
        assert!(moved > 800, "seeds should reshuffle placement: {moved}");
    }

    #[test]
    fn hash_is_roughly_balanced() {
        let t = Topology::hash(10_000, 10, 3);
        for &c in &t.shard_sizes() {
            assert!(
                (700..1300).contains(&c),
                "imbalanced: {:?}",
                t.shard_sizes()
            );
        }
    }

    #[test]
    fn single_server_collapses_everything() {
        let t = Topology::single_server(50);
        assert_eq!(t.distinct_servers(0..50u32), 1);
    }

    #[test]
    fn distinct_servers_dedups() {
        let t = Topology::hash(100, 4, 9);
        assert_eq!(t.distinct_servers(vec![1u32, 1, 1]), 1);
        assert_eq!(t.distinct_servers(0..100u32), 4);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        Topology::hash(10, 0, 0);
    }

    #[test]
    fn group_by_server_emits_one_batch_per_server() {
        let t = Topology::hash(200, 5, 2);
        let targets: Vec<NodeId> = (0..200).collect();
        let mut seen = Vec::new();
        let mut total = 0;
        t.group_by_server_with(&targets, &mut GroupScratch::default(), |server, views| {
            assert!(views.iter().all(|&v| t.server_of(v) == server));
            seen.push(server);
            total += views.len();
        });
        assert_eq!(total, 200);
        let mut dedup = seen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seen.len(), "server visited twice");
        assert_eq!(seen.len(), t.distinct_servers(0..200u32));
    }

    #[test]
    fn replica_slots_wrap_and_start_at_primary() {
        let t = Topology::hash(10, 4, 0).with_replication(3);
        for u in 0..10u32 {
            let slots: Vec<usize> = t.replica_slots(u).collect();
            assert_eq!(slots.len(), 3);
            assert_eq!(slots[0], t.server_of(u));
            let mut dedup = slots.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "replica slots must be distinct servers");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 2 distinct failure domains")]
    fn replication_beyond_servers_is_rejected() {
        // This used to silently clamp; co-locating replica copies adds
        // cost without fault tolerance, so it is now a loud error.
        let _ = Topology::hash(10, 2, 0).with_replication(3);
    }

    #[test]
    #[should_panic(expected = "exceeds the 2 distinct failure domains")]
    fn replication_beyond_domains_is_rejected() {
        // 4 servers but only 2 racks: a third replica would have to share
        // a rack with another copy.
        let _ = Topology::hash(10, 4, 0)
            .with_domains(Topology::block_domains(4, 2))
            .with_replication(3);
    }

    #[test]
    fn domain_spread_slots_never_share_a_domain() {
        // 8 servers in 4 racks of 2: round-robin would often put
        // primary and primary+1 in the same rack; the spread table must
        // never do that.
        let domains = Topology::block_domains(8, 4);
        let t = Topology::hash(100, 8, 1)
            .with_domains(domains.clone())
            .with_replication(3);
        for u in 0..100u32 {
            let slots: Vec<usize> = t.replica_slots(u).collect();
            assert_eq!(slots.len(), 3);
            assert_eq!(slots[0], t.server_of(u), "primary stays slot 0");
            let mut doms: Vec<u32> = slots.iter().map(|&s| domains[s]).collect();
            doms.sort_unstable();
            doms.dedup();
            assert_eq!(doms.len(), 3, "user {u}: slots {slots:?} share a domain");
        }
        assert_eq!(t.distinct_domains(), 4);
        assert_eq!(t.domain_of(7), 3);
    }

    #[test]
    fn trivial_domains_reproduce_round_robin_slots() {
        // An explicit every-server-its-own-domain map must be
        // bit-identical to the no-domains formula.
        let plain = Topology::hash(50, 5, 2).with_replication(2);
        let trivial = Topology::hash(50, 5, 2)
            .with_domains((0..5u32).collect())
            .with_replication(2);
        for u in 0..50u32 {
            assert_eq!(
                plain.replica_slots(u).collect::<Vec<_>>(),
                trivial.replica_slots(u).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn partitioners_thread_domains_through() {
        let (g, r) = world();
        let domains = Topology::block_domains(6, 3);
        let req = PartitionRequest {
            graph: &g,
            rates: &r,
            schedule: None,
            servers: 6,
            seed: 4,
            domains: Some(&domains),
        };
        for p in PartitionStrategy::ALL {
            let t = p.partitioner().partition(&req).with_replication(2);
            assert_eq!(t.domains(), &domains[..], "{} dropped domains", p.name());
            for u in 0..t.users() as NodeId {
                let slots: Vec<usize> = t.replica_slots(u).collect();
                assert_ne!(
                    domains[slots[0]],
                    domains[slots[1]],
                    "{}: user {u} slots {slots:?} co-locate",
                    p.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "domain map must cover every server")]
    fn domain_map_must_cover_servers() {
        let _ = Topology::hash(10, 4, 0).with_domains(vec![0, 1]);
    }

    #[test]
    fn replica_grouping_covers_all_slots_and_picked_routes_reads() {
        let t = Topology::hash(60, 5, 3).with_replication(2);
        let targets: Vec<NodeId> = (0..60).collect();

        let mut per_server: Vec<Vec<NodeId>> = vec![Vec::new(); 5];
        let mut batches = 0;
        t.group_by_replica_server_with(&targets, &mut GroupScratch::default(), |s, views| {
            batches += 1;
            per_server[s].extend_from_slice(views);
        });
        assert!(batches <= 5, "one batch per touched replica shard");
        let total: usize = per_server.iter().map(Vec::len).sum();
        assert_eq!(total, 120, "every target lands on every replica slot");
        for u in 0..60u32 {
            for s in t.replica_slots(u) {
                assert!(per_server[s].contains(&u), "user {u} missing on slot {s}");
            }
        }

        // Picked grouping routes each read to exactly the chosen slot.
        let pick = |u: NodeId| t.replica_slots(u).nth(1).unwrap();
        let mut routed = 0;
        t.group_by_picked_server_with(&targets, &mut GroupScratch::default(), pick, |s, views| {
            routed += views.len();
            assert!(views.iter().all(|&v| pick(v) == s));
        });
        assert_eq!(routed, 60);
    }

    #[test]
    fn ldg_respects_capacity() {
        let (g, r) = world();
        let req = PartitionRequest {
            graph: &g,
            rates: &r,
            schedule: None,
            servers: 7,
            seed: 1,
            domains: None,
        };
        let capacity = ((300.0 * DEFAULT_SLACK / 7.0).ceil()) as usize;
        let t = LdgPartitioner.partition(&req);
        assert_eq!(t.users(), 300);
        let sizes = t.shard_sizes();
        assert!(
            sizes.iter().all(|&s| s <= capacity),
            "shard over capacity {capacity}: {sizes:?}"
        );
    }

    #[test]
    fn request_users_covers_rates_beyond_graph() {
        let (g, _) = world();
        let wide = Rates::uniform(500, 1.0, 5.0);
        let req = PartitionRequest {
            graph: &g,
            rates: &wide,
            schedule: None,
            servers: 4,
            seed: 0,
            domains: None,
        };
        assert_eq!(req.users(), 500);
        for p in PartitionStrategy::ALL {
            let t = p.partitioner().partition(&req);
            assert_eq!(t.users(), 500, "{} must cover rate-model users", p.name());
            for u in 0..500u32 {
                assert!(t.server_of(u) < 4);
            }
        }
    }

    #[test]
    fn registry_names_stable_and_strategy_roundtrips() {
        let names = PartitionStrategy::ALL.map(PartitionStrategy::name);
        assert_eq!(names, ["hash", "ldg"]);
        for strat in PartitionStrategy::ALL {
            assert_eq!(PartitionStrategy::parse(strat.name()), Some(strat));
        }
        assert!(PartitionStrategy::parse("round-robin").is_none());
    }

    #[test]
    fn edges_cut_counts_cross_server_edges() {
        let (g, _) = world();
        let one = Topology::single_server(300);
        assert_eq!(edges_cut(&g, &one), 0);
        let many = Topology::from_assignment((0..300u32).collect(), 300);
        assert_eq!(edges_cut(&g, &many), g.edge_count());
    }
}
