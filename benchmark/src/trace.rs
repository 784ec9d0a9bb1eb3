//! Spans around the benchmark's own calls into each layer.
//!
//! The program records nothing here; the benchmark times the public
//! functions of each layer from outside. A traced run replays one client's
//! operation stream twice on fresh state: once through the real
//! `ServeClient` (the parent span of each operation) and once through a
//! replica of Algorithm 3 assembled from the same public pieces the client
//! is made of, with a child span around each piece. Spans stay in memory
//! and are written out when the run ends.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use piggyback_core::incremental::{ChurnEffect, IncrementalScheduler};
use piggyback_graph::NodeId;
use piggyback_serve::epoch::CompiledSets;
use piggyback_serve::{EpochHandle, ServeClient, ServingSchedule};
use piggyback_store::server::StoreServer;
use piggyback_store::worker::Transport;
use piggyback_store::{
    BufferPool, EventTuple, GroupScratch, QueryScratch, ReplyMerger, ShardClient, View,
};
use piggyback_workload::Op;

use crate::load::Tally;
use crate::world::{SHARDS, TOP_K};

/// Operation id of spans that belong to no single operation.
pub const NO_OP: u32 = u32::MAX;

/// A timed call. The names are the per-layer metric prefixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    RuntimeShare,
    RuntimeQuery,
    RuntimeChurn,
    EpochLookup,
    WorkerUpdate,
    WorkerQuery,
    TopologyGroup,
    ServerUpdate,
    ServerQuery,
    ReplyMerge,
    ViewInsert,
    IncrementalAdd,
    IncrementalRemove,
    EpochPublish,
    GraphGen,
    BootSchedule,
    Partition,
    EpochCompile,
    RuntimeStart,
    RuntimeShutdown,
    Validate,
    DensestPeel,
    ProbeSchedule,
}

pub const LAYERS: usize = Layer::ProbeSchedule as usize + 1;

/// Which span of the same operation a span hangs under.
enum Parent {
    None,
    /// The real client's span of the operation, whatever its kind.
    Root,
    /// The replica's `ShardClient` call of the operation.
    Worker,
    Layer(Layer),
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::RuntimeShare => "serve.runtime.share",
            Layer::RuntimeQuery => "serve.runtime.query",
            Layer::RuntimeChurn => "serve.runtime.churn",
            Layer::EpochLookup => "serve.epoch.lookup",
            Layer::WorkerUpdate => "store.worker.update",
            Layer::WorkerQuery => "store.worker.query",
            Layer::TopologyGroup => "store.topology.group",
            Layer::ServerUpdate => "store.server.update",
            Layer::ServerQuery => "store.server.query",
            Layer::ReplyMerge => "store.merge.reply_merge",
            Layer::ViewInsert => "store.view.insert",
            Layer::IncrementalAdd => "core.incremental.add_edge",
            Layer::IncrementalRemove => "core.incremental.remove_edge",
            Layer::EpochPublish => "serve.epoch.publish",
            Layer::GraphGen => "graph.gen",
            Layer::BootSchedule => "core.boot_schedule",
            Layer::Partition => "store.topology.partition",
            Layer::EpochCompile => "serve.epoch.compile",
            Layer::RuntimeStart => "serve.runtime.start",
            Layer::RuntimeShutdown => "serve.runtime.shutdown",
            Layer::Validate => "core.validate",
            Layer::DensestPeel => "core.densest.peel",
            Layer::ProbeSchedule => "core.probe_schedule",
        }
    }

    fn parent(self) -> Parent {
        match self {
            Layer::EpochLookup
            | Layer::WorkerUpdate
            | Layer::WorkerQuery
            | Layer::IncrementalAdd
            | Layer::IncrementalRemove
            | Layer::EpochPublish => Parent::Root,
            Layer::TopologyGroup | Layer::ServerUpdate | Layer::ServerQuery => Parent::Worker,
            Layer::ReplyMerge => Parent::Layer(Layer::WorkerQuery),
            Layer::ViewInsert => Parent::Layer(Layer::ServerUpdate),
            _ => Parent::None,
        }
    }
}

/// `(op_id, layer, start_ns, end_ns)`; the parent follows from the layer
/// and the operation's kind.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Sum and count of one layer's spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotal {
    pub ns: u64,
    pub spans: u64,
}

impl LayerTotal {
    pub fn mean_ns(self) -> f64 {
        self.ns as f64 / self.spans.max(1) as f64
    }
}

/// In-memory span log.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    pub fn span(&mut self, op: u32, layer: Layer, start: Instant, end: Instant) {
        self.spans.push(Span {
            op,
            layer,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
    }

    /// Times `f` as one span that belongs to no operation.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.span(NO_OP, layer, start, Instant::now());
        out
    }

    pub fn totals(&self) -> [LayerTotal; LAYERS] {
        let mut totals = [LayerTotal::default(); LAYERS];
        for s in &self.spans {
            let t = &mut totals[s.layer as usize];
            t.ns += s.end_ns - s.start_ns;
            t.spans += 1;
        }
        totals
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes one JSON object per span of the operations below `op_limit`
    /// and of no operation. `ops` resolves a span's parent: the root of an
    /// operation is the real client's span of its kind.
    pub fn write_jsonl(
        &self,
        path: &std::path::Path,
        ops: &[Op],
        op_limit: u32,
    ) -> std::io::Result<()> {
        let root_of = |op: u32| match ops.get(op as usize) {
            Some(Op::Share(_)) => Layer::RuntimeShare,
            Some(Op::Query(_)) => Layer::RuntimeQuery,
            _ => Layer::RuntimeChurn,
        };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self
            .spans
            .iter()
            .filter(|s| s.op < op_limit || s.op == NO_OP)
        {
            let parent = match s.layer.parent() {
                Parent::None => None,
                Parent::Root => Some(root_of(s.op)),
                Parent::Worker => Some(match root_of(s.op) {
                    Layer::RuntimeShare => Layer::WorkerUpdate,
                    _ => Layer::WorkerQuery,
                }),
                Parent::Layer(l) => Some(l),
            };
            let op = if s.op == NO_OP {
                "null".to_string()
            } else {
                s.op.to_string()
            };
            let parent = parent.map_or("null".to_string(), |p| format!("\"{}\"", p.name()));
            writeln!(
                out,
                "{{\"op_id\": {op}, \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Order-sensitive digest of a feed's `(user, timestamp)` pairs. Event ids
/// carry the issuing client's number and so differ between two servers.
fn feed_digest(events: &[EventTuple]) -> u64 {
    events.iter().fold(0xcbf2_9ce4_8422_2325, |h, e| {
        (h ^ u64::from(e.user) ^ e.timestamp.rotate_left(32)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What an operation did, as far as every execution of it must agree:
/// messages sent and feed returned, or whether the churn was applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpEcho {
    pub messages: u64,
    pub digest: u64,
}

/// Operations per chunk of a replay. Chunks alternate between traced
/// (a span per call) and untraced, so both kinds see the same server
/// state and the difference in their rates is what the spans cost.
pub const CHUNK_OPS: usize = 2_500;

/// Whether operation `i` of a replay is in a traced chunk.
pub fn is_traced(i: usize) -> bool {
    (i / CHUNK_OPS).is_multiple_of(2)
}

/// Wall time a replay spent in its traced and in its untraced chunks.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayWalls {
    pub traced: Duration,
    pub untraced: Duration,
}

/// Runs `ops` through the real client and returns what each did. With a
/// recorder, each operation of a traced chunk is a parent span whose id is
/// its index in `ops`.
pub fn replay_real(
    client: &mut ServeClient,
    ops: &[Op],
    mut recorder: Option<&mut Recorder>,
) -> (Vec<OpEcho>, ReplayWalls) {
    let mut echoes = Vec::with_capacity(ops.len());
    let mut walls = ReplayWalls::default();
    for (c, chunk) in ops.chunks(CHUNK_OPS).enumerate() {
        let mut rec = recorder.as_deref_mut().filter(|_| is_traced(c * CHUNK_OPS));
        let chunk_start = Instant::now();
        for (j, &op) in chunk.iter().enumerate() {
            let start = rec.is_some().then(Instant::now);
            // The end stamp is taken before the feed is digested: the
            // digest is the benchmark's work, not the client's.
            let (layer, end, echo) = match op {
                Op::Share(u) => {
                    let messages = client.share(u);
                    let end = rec.is_some().then(Instant::now);
                    (
                        Layer::RuntimeShare,
                        end,
                        OpEcho {
                            messages,
                            digest: 0,
                        },
                    )
                }
                Op::Query(u) => {
                    let (feed, messages) = client.query(u);
                    let end = rec.is_some().then(Instant::now);
                    let digest = feed_digest(&feed);
                    (Layer::RuntimeQuery, end, OpEcho { messages, digest })
                }
                Op::Follow(u, v) | Op::Unfollow(u, v) => {
                    let applied = if matches!(op, Op::Follow(..)) {
                        client.follow(u, v)
                    } else {
                        client.unfollow(u, v)
                    };
                    let end = rec.is_some().then(Instant::now);
                    (
                        Layer::RuntimeChurn,
                        end,
                        OpEcho {
                            messages: 0,
                            digest: u64::from(applied),
                        },
                    )
                }
            };
            if let (Some(r), Some(start), Some(end)) = (rec.as_deref_mut(), start, end) {
                r.span((c * CHUNK_OPS + j) as u32, layer, start, end);
            }
            echoes.push(echo);
        }
        if rec.is_some() {
            walls.traced += chunk_start.elapsed();
        } else {
            walls.untraced += chunk_start.elapsed();
        }
    }
    (echoes, walls)
}

/// The serve runtime compacts churn overrides into a fresh base at this
/// many entries (`OVERRIDE_COMPACT_LIMIT`, private to it). The replica does
/// the same so its lookups walk maps of the same size; were the two to
/// drift the serving sets would still be equal, only the lookup cost not.
const OVERRIDE_COMPACT_LIMIT: usize = 1024;

/// Counts kept at the boundaries the replica times (traced chunks only).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaCounts {
    pub shares: u64,
    pub queries: u64,
    pub share_messages: u64,
    pub query_messages: u64,
    pub push_views: u64,
    pub pull_views: u64,
    pub inserts: u64,
}

/// The views each request of a replay touched, in operation order, so the
/// later passes need neither the schedule nor the churn that shaped it.
#[derive(Default)]
pub struct TargetLog {
    flat: Vec<NodeId>,
    /// End offset into `flat` of each operation's targets (churn: none).
    ends: Vec<usize>,
}

impl TargetLog {
    fn push(&mut self, targets: &[NodeId]) {
        self.flat.extend_from_slice(targets);
        self.ends.push(self.flat.len());
    }

    fn of(&self, op: usize) -> &[NodeId] {
        let start = if op == 0 { 0 } else { self.ends[op - 1] };
        &self.flat[start..self.ends[op]]
    }
}

/// Algorithm 3 from public pieces, on benchmark-owned state, in three
/// passes over the same operations so that each pass touches about the
/// memory the real client touches and no more:
///
/// 1. [`replay_client`](Replica::replay_client): the control plane (its
///    own epoch handle and incremental scheduler) and the data plane as
///    the real client drives it, `ShardClient` over `Transport::Direct`;
/// 2. [`replay_pieces`](Replica::replay_pieces): what `ShardClient` is
///    made of, call by call on a second shard array — group by server,
///    `StoreServer::update` / `query_with` per group, reply merge;
/// 3. [`replay_views`](Replica::replay_views): the same inserts once more
///    straight into a dense array of `View`s.
///
/// Every pass compares each operation with what the real client did.
pub struct Replica {
    handle: EpochHandle,
    inc: IncrementalScheduler,
    worker: ShardClient,
    view_capacity: usize,
    targets: Vec<NodeId>,
    merged: Vec<EventTuple>,
    log: TargetLog,
    pub counts: ReplicaCounts,
    pub tally: Tally,
}

/// The event of the `ordinal`-th share (1-based) of a replay: the server's
/// logical clock starts at 1 and ticks once per share.
fn event_of(u: NodeId, ordinal: u64) -> EventTuple {
    EventTuple::new(u, ordinal, ordinal)
}

impl Replica {
    /// `initial` is the compiled boot schedule; `inc` wraps the same
    /// graph, rates and schedule the server booted with.
    pub fn new(initial: ServingSchedule, inc: IncrementalScheduler, view_capacity: usize) -> Self {
        let shards = Arc::new(
            (0..SHARDS)
                .map(|_| parking_lot::Mutex::new(StoreServer::new(view_capacity)))
                .collect::<Vec<_>>(),
        );
        Replica {
            handle: EpochHandle::new(initial),
            inc,
            worker: ShardClient::new(Transport::Direct(shards), Arc::new(BufferPool::new())),
            view_capacity,
            targets: Vec::new(),
            merged: Vec::new(),
            log: TargetLog::default(),
            counts: ReplicaCounts::default(),
            tally: Tally::default(),
        }
    }

    /// The replica's current serving snapshot.
    pub fn snapshot(&self) -> Arc<ServingSchedule> {
        self.handle.load()
    }

    fn compare(&mut self, i: usize, op: Op, pass: &str, echo: OpEcho, expected: OpEcho) {
        self.tally.attempted += 1;
        if echo != expected {
            self.tally.fail(format!(
                "op {i} ({op:?}), {pass}: real client {expected:?}, replica {echo:?}"
            ));
        }
    }

    /// Pass 1. `ops` is the whole replay, `echoes` what the real client did
    /// on each. The `warmup` leading operations are not recorded; the rest
    /// are where [`is_traced`] says so, with ids counted from the end of
    /// the warm-up.
    pub fn replay_client(
        &mut self,
        ops: &[Op],
        echoes: &[OpEcho],
        warmup: usize,
        rec: &mut Recorder,
    ) {
        let mut shares = 0;
        for (i, &op) in ops.iter().enumerate() {
            let id = i.wrapping_sub(warmup) as u32;
            let mut rec = (i >= warmup && is_traced(id as usize)).then_some(&mut *rec);
            let echo = match op {
                Op::Share(u) => {
                    shares += 1;
                    let t0 = Instant::now();
                    let snapshot = self.handle.load();
                    snapshot.collect_push_targets(u, &mut self.targets);
                    let t1 = Instant::now();
                    let messages = self.worker.update(
                        snapshot.topology(),
                        &self.targets,
                        event_of(u, shares).to_wire(),
                    );
                    let t2 = Instant::now();
                    if let Some(r) = rec.as_deref_mut() {
                        r.span(id, Layer::EpochLookup, t0, t1);
                        r.span(id, Layer::WorkerUpdate, t1, t2);
                        self.counts.shares += 1;
                        self.counts.share_messages += messages;
                        self.counts.push_views += self.targets.len() as u64;
                    }
                    OpEcho {
                        messages,
                        digest: 0,
                    }
                }
                Op::Query(u) => {
                    let t0 = Instant::now();
                    let snapshot = self.handle.load();
                    snapshot.collect_pull_sources(u, &mut self.targets);
                    let t1 = Instant::now();
                    let messages = self.worker.query(
                        snapshot.topology(),
                        &self.targets,
                        TOP_K,
                        &mut self.merged,
                    );
                    let t2 = Instant::now();
                    if let Some(r) = rec.as_deref_mut() {
                        r.span(id, Layer::EpochLookup, t0, t1);
                        r.span(id, Layer::WorkerQuery, t1, t2);
                        self.counts.queries += 1;
                        self.counts.query_messages += messages;
                        self.counts.pull_views += self.targets.len() as u64;
                    }
                    OpEcho {
                        messages,
                        digest: feed_digest(&self.merged),
                    }
                }
                Op::Follow(u, v) | Op::Unfollow(u, v) => {
                    self.targets.clear();
                    self.churn(id, matches!(op, Op::Follow(..)), u, v, rec)
                }
            };
            self.log.push(&self.targets);
            self.compare(i, op, "client pass", echo, echoes[i]);
        }
    }

    fn churn(
        &mut self,
        op: u32,
        add: bool,
        u: NodeId,
        v: NodeId,
        mut rec: Option<&mut Recorder>,
    ) -> OpEcho {
        let s = Instant::now();
        let effect = if add {
            self.inc.add_edge_detailed(u, v)
        } else {
            self.inc.remove_edge_detailed(u, v)
        };
        let e = Instant::now();
        if let Some(r) = rec.as_deref_mut() {
            let layer = if add {
                Layer::IncrementalAdd
            } else {
                Layer::IncrementalRemove
            };
            r.span(op, layer, s, e);
        }
        if effect.applied {
            let s = Instant::now();
            self.publish(&effect);
            if let Some(r) = rec {
                r.span(op, Layer::EpochPublish, s, Instant::now());
            }
        }
        OpEcho {
            messages: 0,
            digest: u64::from(effect.applied),
        }
    }

    /// What the churn manager does after an applied mutation: recompile
    /// the touched users' sets, publish the next epoch.
    fn publish(&mut self, effect: &ChurnEffect) {
        let snapshot = self.handle.load();
        if snapshot.override_count() >= OVERRIDE_COMPACT_LIMIT {
            let users = self.inc.rates().len() as NodeId;
            let sets = CompiledSets {
                push: (0..users).map(|x| self.inc.push_targets(x)).collect(),
                pull: (0..users).map(|x| self.inc.pull_sources(x)).collect(),
            };
            self.handle.swap(ServingSchedule::from_sets(
                sets,
                Arc::clone(snapshot.topology()),
                snapshot.epoch() + 1,
            ));
            return;
        }
        let push = effect
            .push_changed
            .iter()
            .map(|&x| (x, self.inc.push_targets(x)))
            .collect::<Vec<_>>();
        let pull = effect
            .pull_changed
            .iter()
            .map(|&x| (x, self.inc.pull_sources(x)))
            .collect::<Vec<_>>();
        self.handle.swap(snapshot.with_updates(push, pull));
    }

    /// Pass 2, over the operations pass 1 logged. Returns the views queried
    /// per traced query batch, summed.
    pub fn replay_pieces(
        &mut self,
        ops: &[Op],
        echoes: &[OpEcho],
        warmup: usize,
        rec: &mut Recorder,
    ) -> u64 {
        let topology = Arc::clone(self.handle.load().topology());
        let mut shards: Vec<StoreServer> = (0..SHARDS)
            .map(|_| StoreServer::new(self.view_capacity))
            .collect();
        let mut group = GroupScratch::default();
        let mut scratch = QueryScratch::new();
        let mut merger = ReplyMerger::new();
        // `(shard, start, end)` into `flat` of each group of one request.
        let mut groups: Vec<(usize, usize, usize)> = Vec::new();
        let mut flat: Vec<NodeId> = Vec::new();
        let (mut replies, mut spare): (Vec<BytesMut>, Vec<BytesMut>) = (Vec::new(), Vec::new());
        let mut merged = Vec::new();
        let (mut shares, mut batch_views) = (0, 0);
        for (i, &op) in ops.iter().enumerate() {
            if op.is_churn() {
                continue;
            }
            let id = i.wrapping_sub(warmup);
            let traced = i >= warmup && is_traced(id);
            let targets = self.log.of(i);
            groups.clear();
            flat.clear();
            let t0 = Instant::now();
            topology.group_by_server_with(targets, &mut group, |shard, views| {
                groups.push((shard, flat.len(), flat.len() + views.len()));
                flat.extend_from_slice(views);
            });
            if traced {
                rec.span(id as u32, Layer::TopologyGroup, t0, Instant::now());
            }
            let echo = match op {
                Op::Share(u) => {
                    shares += 1;
                    let event = event_of(u, shares);
                    for &(shard, start, end) in &groups {
                        let s = Instant::now();
                        shards[shard].update(&flat[start..end], event);
                        if traced {
                            rec.span(id as u32, Layer::ServerUpdate, s, Instant::now());
                        }
                    }
                    OpEcho {
                        messages: groups.len() as u64,
                        digest: 0,
                    }
                }
                _ => {
                    for &(shard, start, end) in &groups {
                        let s = Instant::now();
                        let found =
                            shards[shard].query_with(&flat[start..end], TOP_K, &mut scratch);
                        if traced {
                            rec.span(id as u32, Layer::ServerQuery, s, Instant::now());
                            batch_views += (end - start) as u64;
                        }
                        // Wire-encode the reply as the shard worker would;
                        // that cost is the worker's own, so no span here.
                        let mut buf = spare.pop().unwrap_or_default();
                        buf.clear();
                        EventTuple::encode_all(found, &mut buf);
                        replies.push(buf);
                    }
                    let s = Instant::now();
                    merger.merge_into(&mut replies, TOP_K, &mut merged);
                    if traced {
                        rec.span(id as u32, Layer::ReplyMerge, s, Instant::now());
                    }
                    spare.append(&mut replies);
                    OpEcho {
                        messages: groups.len() as u64,
                        digest: feed_digest(&merged),
                    }
                }
            };
            self.compare(i, op, "pieces pass", echo, echoes[i]);
        }
        batch_views
    }

    /// Pass 3: every share's inserts, one span per traced share.
    pub fn replay_views(&mut self, ops: &[Op], warmup: usize, rec: &mut Recorder) {
        let users = self.handle.load().topology().users();
        let mut views: Vec<View> = (0..users)
            .map(|_| View::with_capacity(self.view_capacity))
            .collect();
        let mut shares = 0;
        for (i, &op) in ops.iter().enumerate() {
            let Op::Share(u) = op else { continue };
            shares += 1;
            let event = event_of(u, shares);
            let targets = self.log.of(i);
            let s = Instant::now();
            for &v in targets {
                views[v as usize].insert(event);
            }
            let id = i.wrapping_sub(warmup);
            if i >= warmup && is_traced(id) {
                rec.span(id as u32, Layer::ViewInsert, s, Instant::now());
                self.counts.inserts += targets.len() as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_durations_per_layer() {
        let mut r = Recorder::default();
        let t = r.origin;
        let at = |ns: u64| t + std::time::Duration::from_nanos(ns);
        r.span(0, Layer::EpochLookup, at(10), at(30));
        r.span(1, Layer::EpochLookup, at(40), at(45));
        r.span(1, Layer::ReplyMerge, at(50), at(150));
        let totals = r.totals();
        let lookup = totals[Layer::EpochLookup as usize];
        assert_eq!((lookup.ns, lookup.spans), (25, 2));
        assert_eq!(lookup.mean_ns(), 12.5);
        assert_eq!(totals[Layer::ReplyMerge as usize].ns, 100);
        assert_eq!(totals[Layer::ViewInsert as usize].mean_ns(), 0.0);
    }

    #[test]
    fn jsonl_resolves_parents_from_the_op_kind() {
        let mut r = Recorder::default();
        let t = r.origin;
        r.span(0, Layer::RuntimeShare, t, t);
        r.span(0, Layer::TopologyGroup, t, t);
        r.span(1, Layer::TopologyGroup, t, t);
        r.span(1, Layer::ReplyMerge, t, t);
        r.span(NO_OP, Layer::GraphGen, t, t);
        r.span(2, Layer::RuntimeShare, t, t);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("unit-test-{}.trace.jsonl", std::process::id()));
        r.write_jsonl(&path, &[Op::Share(3), Op::Query(4), Op::Share(5)], 2)
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "op 2 is beyond the limit");
        assert!(lines[0].contains("\"op_id\": 0") && lines[0].contains("\"parent\": null"));
        assert!(lines[1].contains("\"parent\": \"store.worker.update\""));
        assert!(lines[2].contains("\"parent\": \"store.worker.query\""));
        assert!(lines[3].contains("\"parent\": \"store.worker.query\""));
        assert!(lines[4].contains("\"op_id\": null"));
        for l in lines {
            crate::json::Json::parse(l).unwrap();
        }
    }
}
