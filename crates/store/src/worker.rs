//! The wire-format request/reply protocol between application-server
//! clients and data-store shards, and the two transports that carry it.
//!
//! The online `piggyback-serve` runtime speaks it caller-runs only
//! ([`Transport::Direct`]): a client runs its batches inline. The worker
//! plane ([`Transport::Workers`], [`worker_loop`], [`BufferPool`]) serves
//! no runtime; the benchmark times one hop through it. There a worker
//! owns a channel receiver, and shard `s` may be served by any worker, so
//! thousands of logical servers multiplex onto a bounded thread pool.
//!
//! Requests and replies are (de)serialized in the 24-byte wire format on
//! either transport, so every message pays realistic work — as a
//! memcached round trip would (§4.3).
//!
//! Every update and query is a batch issued by a [`ShardClient`]: one
//! operation's shard fan-out is packed into one message per touched shard,
//! each served by [`serve_batch`], and the client folds each per-shard
//! reply into a running top-k ([`ReplyMerger`]) as it arrives. The two
//! [`Transport`]s share `serve_batch`, the wire format and the
//! accounting, and differ in who owns the buffers. Over worker threads a
//! batch travels as a [`ShardBatch`]: view lists and reply payloads ride
//! pooled buffers ([`BufferPool`]) and every message answers into the
//! *same* per-client reply channel. Caller-runs, the client lends
//! `serve_batch` the grouped slice and its one reply buffer; since its
//! batches run one after another, each query batch carries the running
//! k-th newest as a floor and the shard ships only newer tuples. Either
//! way, steady state mints no channel, `Vec`, or reply buffer per
//! operation.
//!
//! Only client operations cross this protocol. The control plane
//! (probe, view copy and drop, stats scrape, restart) runs in the same
//! process and calls [`StoreServer`] methods under the shard lock, so the
//! batch counters count client messages only.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::BytesMut;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;
use piggyback_graph::NodeId;

use crate::fault::{FaultDecision, FaultInjector, PartitionDir};
use crate::health::HealthTracker;
use crate::merge::ReplyMerger;
use crate::server::{QueryScratch, ShardStats, StoreServer};
use crate::topology::{GroupScratch, Topology};
use crate::tuple::{EventTuple, TUPLE_BYTES};

/// Lock stripes in a [`BufferPool`].
const POOL_STRIPES: usize = 8;
/// Buffers retained per stripe; returns beyond this are dropped, bounding
/// pool memory on bursts.
const STRIPE_CAP: usize = 64;

/// A striped free-list of reply buffers and view-list vectors, shared by
/// clients and shard workers. Clients draw view lists, workers draw reply
/// buffers; each side returns what the other produced, so a steady-state
/// operation recirculates warmed allocations instead of minting new ones.
#[derive(Debug)]
pub struct BufferPool {
    bufs: Vec<Mutex<Vec<BytesMut>>>,
    vecs: Vec<Mutex<Vec<Vec<NodeId>>>>,
    next_buf: AtomicUsize,
    next_vec: AtomicUsize,
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool {
            bufs: (0..POOL_STRIPES).map(|_| Mutex::new(Vec::new())).collect(),
            vecs: (0..POOL_STRIPES).map(|_| Mutex::new(Vec::new())).collect(),
            next_buf: AtomicUsize::new(0),
            next_vec: AtomicUsize::new(0),
        }
    }
}

impl BufferPool {
    /// Empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// A cleared reply buffer (pooled if available).
    pub fn get_buf(&self) -> BytesMut {
        let s = self.next_buf.fetch_add(1, Ordering::Relaxed) % POOL_STRIPES;
        self.bufs[s].lock().pop().unwrap_or_default()
    }

    /// Returns a reply buffer to the pool. Zero-capacity buffers (empty
    /// acks) carry no allocation worth keeping and are dropped.
    pub fn put_buf(&self, mut buf: BytesMut) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let s = self.next_buf.fetch_add(1, Ordering::Relaxed) % POOL_STRIPES;
        let mut stripe = self.bufs[s].lock();
        if stripe.len() < STRIPE_CAP {
            stripe.push(buf);
        }
    }

    /// A cleared view-list vector (pooled if available).
    pub fn get_vec(&self) -> Vec<NodeId> {
        let s = self.next_vec.fetch_add(1, Ordering::Relaxed) % POOL_STRIPES;
        self.vecs[s].lock().pop().unwrap_or_default()
    }

    /// Returns a view-list vector to the pool.
    pub fn put_vec(&self, mut v: Vec<NodeId>) {
        if v.capacity() == 0 {
            return;
        }
        v.clear();
        let s = self.next_vec.fetch_add(1, Ordering::Relaxed) % POOL_STRIPES;
        let mut stripe = self.vecs[s].lock();
        if stripe.len() < STRIPE_CAP {
            stripe.push(v);
        }
    }

    /// Buffers currently parked in the pool (tests/diagnostics).
    pub fn pooled_counts(&self) -> (usize, usize) {
        (
            self.bufs.iter().map(|s| s.lock().len()).sum(),
            self.vecs.iter().map(|s| s.lock().len()).sum(),
        )
    }
}

/// What a [`ShardBatch`] asks the shard to do.
#[derive(Clone, Copy)]
pub enum BatchOp {
    /// Insert a wire-encoded event into every listed view; the reply is an
    /// empty ack.
    Update {
        /// Wire-encoded [`EventTuple`] — a stack array, so fanning one
        /// share across shards copies 24 bytes per batch and allocates
        /// nothing.
        payload: [u8; TUPLE_BYTES],
    },
    /// Read the `k` latest events across the listed views that are
    /// strictly newer than `floor`; the reply is the merged, newest-first
    /// wire encoding.
    Query {
        /// Server-side filter width.
        k: usize,
        /// The issuing client's running k-th newest tuple: nothing at or
        /// below it can enter the feed, so the shard does not ship it.
        /// Only the caller-runs client sets it (its batches run in
        /// sequence); `None` on the worker plane and for whole-view reads.
        floor: Option<EventTuple>,
    },
}

/// One coalesced message to a data-store shard: every view one operation
/// touches on that shard, plus the client's pooled reply channel.
pub struct ShardBatch {
    /// Target shard index.
    pub shard: usize,
    /// Views on that shard (drawn from the [`BufferPool`]; the worker
    /// returns it after processing).
    pub views: Vec<NodeId>,
    /// The operation.
    pub op: BatchOp,
    /// The issuing client's reply channel; one buffer comes back per
    /// batch.
    pub reply: Sender<BytesMut>,
}

/// The worker plane's message type. The benchmark binds this name
/// (`bounded::<ShardRequest>`); ROADMAP item 1's worker-plane follow-up
/// deletes it.
pub type ShardRequest = ShardBatch;

/// Serves one batch against its shard — what both transports execute:
/// decode the wire payload, take the shard lock, account the batch, insert
/// or merge, and append the wire-encoded reply to `out` (an update's ack
/// is empty and leaves `out` untouched). Callers own every buffer: the
/// worker plane passes a pooled list and a pooled reply buffer, the
/// caller-runs plane its grouped slice and a reply slot of its own.
pub fn serve_batch(
    shards: &[Mutex<StoreServer>],
    scratch: &mut QueryScratch,
    shard: usize,
    views: &[NodeId],
    op: BatchOp,
    out: &mut BytesMut,
) {
    match op {
        BatchOp::Update { payload } => {
            let mut cursor: &[u8] = &payload;
            let event = EventTuple::decode(&mut cursor).expect("malformed update payload");
            let mut srv = shards[shard].lock();
            record_batch(srv.stats_mut(), views.len());
            srv.update(views, event);
        }
        BatchOp::Query { k, floor } => {
            // The merged slice borrows only the scratch, so the shard
            // lock is dropped before encoding the reply.
            let merged = {
                let mut srv = shards[shard].lock();
                record_batch(srv.stats_mut(), views.len());
                srv.query_newer(views, k, floor, scratch)
            };
            EventTuple::encode_all(merged, out);
        }
    }
}

/// Batch accounting, under the shard lock the caller already holds.
fn record_batch(stats: &mut ShardStats, views: usize) {
    stats.batches += 1;
    stats.batch_ops += views as u64;
}

/// Runs a shard worker until every batch sender is dropped. The worker
/// owns one [`QueryScratch`], so its steady-state query handling is
/// allocation-free.
pub fn worker_loop(shards: &[Mutex<StoreServer>], pool: &BufferPool, rx: &Receiver<ShardBatch>) {
    let mut scratch = QueryScratch::new();
    while let Ok(ShardBatch {
        shard,
        views,
        op,
        reply,
    }) = rx.recv()
    {
        let mut out = match op {
            BatchOp::Update { .. } => BytesMut::new(), // empty ack, no allocation
            BatchOp::Query { .. } => pool.get_buf(),
        };
        serve_batch(shards, &mut scratch, shard, &views, op, &mut out);
        pool.put_vec(views);
        let _ = reply.send(out);
    }
}

/// How shard requests reach the shard array.
#[derive(Clone)]
pub enum Transport {
    /// Channels to a shard-worker pool: batches execute on worker threads
    /// ([`worker_loop`]). No runtime serves over it; the benchmark times
    /// one hop through it.
    Workers(Arc<Vec<Sender<ShardBatch>>>),
    /// Caller-runs: the issuing thread executes each batch inline through
    /// the same [`serve_batch`] the workers call — the same wire
    /// (de)serialization, the same one-message-per-touched-server
    /// accounting — on buffers the caller owns: no [`ShardBatch`], no
    /// pool, no channel, no thread hop. The right trade when clients
    /// outnumber cores (an embedded single-process deployment).
    Direct(Arc<Vec<Mutex<StoreServer>>>),
}

/// A per-client handle onto the batched request plane.
///
/// One operation = one [`update`](ShardClient::update) or
/// [`query`](ShardClient::query) call; both group the target views by home
/// server, deliver one batch per touched shard, and collect exactly that
/// many replies before returning, so replies can never leak across
/// operations: from the one channel all of the client's batches answer
/// into ([`Transport::Workers`]), or absorbed from the client's own reply
/// buffer right after each batch runs ([`Transport::Direct`]).
pub struct ShardClient {
    transport: Transport,
    /// Worker plane only. A `Direct` client still *takes* a pool — one
    /// constructor for both transports, pinned by the benchmark — and
    /// never touches it, nor the reply channel.
    pool: Arc<BufferPool>,
    reply_tx: Sender<BytesMut>,
    reply_rx: Receiver<BytesMut>,
    group: GroupScratch,
    /// Caller-runs only: the one reply buffer every batch is served into,
    /// absorbed and rewound per batch.
    reply: BytesMut,
    /// The running top-k of the query in flight.
    merger: ReplyMerger,
    /// Worker-side merge scratch, used when the transport is caller-runs.
    scratch: QueryScratch,
    /// Round-robin op counter for worker affinity.
    next_op: usize,
    /// Shared failure detector: read routing consults it, refused sends
    /// feed it. `None` = route reads to primaries unconditionally.
    health: Option<Arc<HealthTracker>>,
    /// Chaos-mode fault injection at the send seam. `None` = faultless.
    faults: Option<Arc<FaultInjector>>,
}

/// The send side of one operation, borrowed apart from the grouping
/// scratch and the fault hooks so the grouping callbacks can hold all
/// three at once.
struct Outbox<'a> {
    transport: &'a Transport,
    pool: &'a BufferPool,
    reply_tx: &'a Sender<BytesMut>,
    scratch: &'a mut QueryScratch,
    reply: &'a mut BytesMut,
    merger: &'a mut ReplyMerger,
    /// The worker serving this operation (worker plane only).
    worker: usize,
    /// Replies the caller must collect from the reply channel (workers);
    /// caller-runs replies are absorbed as they are served.
    pending: usize,
}

impl Outbox<'_> {
    /// Delivers one batch to `shard`. With `keep_reply` unset the batch
    /// lands but its reply is lost on the way back (chaos): a worker
    /// answers into a throwaway channel whose receiver is already gone —
    /// workers tolerate that — and a caller-runs reply is not absorbed.
    fn deliver(&mut self, shard: usize, views: &[NodeId], op: BatchOp, keep_reply: bool) {
        match self.transport {
            Transport::Workers(senders) => {
                let mut list = self.pool.get_vec();
                list.extend_from_slice(views);
                let reply = if keep_reply {
                    self.reply_tx.clone()
                } else {
                    bounded(1).0
                };
                senders[self.worker]
                    .send(ShardBatch {
                        shard,
                        views: list,
                        op,
                        reply,
                    })
                    .expect("worker channel closed");
            }
            Transport::Direct(shards) => match op {
                BatchOp::Update { .. } => {
                    serve_batch(shards, self.scratch, shard, views, op, self.reply);
                }
                BatchOp::Query { k, .. } => {
                    // Batches run in sequence here, so each one carries the
                    // running k-th newest of the replies already absorbed.
                    let floor = self.merger.floor(k);
                    // `absorb` advanced the last reply's read cursor;
                    // `clear` rewinds it.
                    self.reply.clear();
                    let op = BatchOp::Query { k, floor };
                    serve_batch(shards, self.scratch, shard, views, op, self.reply);
                    if keep_reply {
                        self.merger.absorb(self.reply, k);
                    }
                }
            },
        }
        self.pending += usize::from(keep_reply);
    }
}

impl ShardClient {
    /// A client speaking over `transport` (`pool`: worker plane only).
    pub fn new(transport: Transport, pool: Arc<BufferPool>) -> Self {
        let (reply_tx, reply_rx) = unbounded();
        ShardClient {
            transport,
            pool,
            reply_tx,
            reply_rx,
            group: GroupScratch::default(),
            reply: BytesMut::new(),
            merger: ReplyMerger::new(),
            scratch: QueryScratch::new(),
            next_op: 0,
            health: None,
            faults: None,
        }
    }

    /// Attaches the runtime's shared failure detector and fault injector.
    /// With neither attached (and replication 1) every batch goes to its
    /// views' home server, delivered once.
    pub fn with_resilience(
        mut self,
        health: Option<Arc<HealthTracker>>,
        faults: Option<Arc<FaultInjector>>,
    ) -> Self {
        self.health = health;
        self.faults = faults;
        self
    }

    /// Sends one batched update per server holding a view in `targets`
    /// and waits for every ack. Returns the number of store messages.
    pub fn update(
        &mut self,
        topology: &Topology,
        targets: &[NodeId],
        payload: [u8; TUPLE_BYTES],
    ) -> u64 {
        let (sent, pending) = self.fan_out(topology, targets, BatchOp::Update { payload });
        if let Transport::Workers(_) = self.transport {
            for _ in 0..pending {
                let ack = self.reply_rx.recv().expect("worker dropped reply");
                self.pool.put_buf(ack);
            }
        }
        sent
    }

    /// Sends one batched query per server holding a view in `targets`,
    /// merges the replies into `out` (newest first, deduped, truncated to
    /// `k`), and returns the number of store messages.
    pub fn query(
        &mut self,
        topology: &Topology,
        targets: &[NodeId],
        k: usize,
        out: &mut Vec<EventTuple>,
    ) -> u64 {
        self.merger.clear();
        let op = BatchOp::Query { k, floor: None };
        let (sent, pending) = self.fan_out(topology, targets, op);
        if let Transport::Workers(_) = self.transport {
            // Every batch went out before the first reply: no floor here.
            for _ in 0..pending {
                let mut buf = self.reply_rx.recv().expect("worker dropped reply");
                self.merger.absorb(&mut buf, k);
                self.pool.put_buf(buf);
            }
        }
        out.clear();
        out.extend_from_slice(self.merger.merged());
        sent
    }

    /// Groups `targets` by home server and delivers one batch per touched
    /// server over the transport. Returns `(messages, replies to
    /// collect)`; the two differ only when chaos loses a message the
    /// transport had accepted.
    ///
    /// Writes cover every replica slot, reads route per view to the
    /// healthiest readable replica, and the fault injector gets a say on
    /// each outgoing batch. With replication 1 and no resilience attached
    /// that is one batch per home server: every read picks the primary
    /// and every batch is delivered once. Kill semantics are
    /// connection-refused: the batch is never sent and no reply is
    /// awaited, so a dead shard costs a health miss, not a hang.
    fn fan_out(&mut self, topology: &Topology, targets: &[NodeId], op: BatchOp) -> (u64, usize) {
        let write = matches!(op, BatchOp::Update { .. });
        // One operation's whole fan-out goes to a single worker
        // (round-robin across ops): the mutex owns shard state, not the
        // thread, so any worker may serve any shard, and one queue means
        // one worker wake-up per operation instead of one per touched
        // worker. Ops are the unit of parallelism, so worker utilization
        // stays balanced.
        let worker = match &self.transport {
            Transport::Workers(senders) => {
                self.next_op = self.next_op.wrapping_add(1);
                self.next_op % senders.len()
            }
            Transport::Direct(_) => 0,
        };
        let mut outbox = Outbox {
            transport: &self.transport,
            pool: &self.pool,
            reply_tx: &self.reply_tx,
            scratch: &mut self.scratch,
            reply: &mut self.reply,
            merger: &mut self.merger,
            worker,
            pending: 0,
        };
        let health = self.health.as_deref();
        let faults = self.faults.as_deref();
        let mut sent = 0u64;
        let mut emit = |shard: usize, views: &[NodeId]| {
            if let Some(f) = faults {
                if f.is_killed(shard) {
                    f.note_refused();
                    if let Some(h) = health {
                        h.mark_down(shard);
                    }
                    return;
                }
                match f.partition_of(shard) {
                    Some(PartitionDir::Inbound) => {
                        // The request is lost on the way in: the shard
                        // never sees it and no reply ever comes. Unlike a
                        // kill, the client learns nothing at send time —
                        // only the heartbeat prober's silence walks the
                        // shard toward Down.
                        return;
                    }
                    Some(PartitionDir::Outbound) => {
                        // The request arrives and mutates shard state,
                        // but the reply is lost.
                        outbox.deliver(shard, views, op, false);
                        return;
                    }
                    None => {}
                }
            }
            let decision = faults.map_or(FaultDecision::Deliver, |f| f.decide(write));
            if write && decision == FaultDecision::DropUpdate {
                // Lost on the wire after the transport accepted it: a
                // message sent, nothing delivered, no ack to wait for.
                sent += 1;
                return;
            }
            if decision == FaultDecision::Delay {
                faults.expect("delay without injector").delay();
            }
            if decision == FaultDecision::Duplicate {
                // Redelivery: the same batch lands twice back-to-back.
                outbox.deliver(shard, views, op, false);
            }
            outbox.deliver(shard, views, op, true);
            sent += 1;
        };
        if write && topology.replication() > 1 {
            topology.group_by_replica_server_with(targets, &mut self.group, &mut emit);
        } else if !write {
            topology.group_by_picked_server_with(
                targets,
                &mut self.group,
                |u| read_slot(topology, health, faults, u),
                &mut emit,
            );
        } else {
            topology.group_by_server_with(targets, &mut self.group, &mut emit);
        }
        (sent, outbox.pending)
    }
}

/// Read-routing policy: the first replica slot (primary first) that is
/// neither killed nor excluded by health. A `Suspect` replica within the
/// Theorem-1 laxity is legal (see [`HealthTracker::is_readable`]); one
/// beyond it is skipped until catch-up. If every slot is excluded, fall
/// back to the first live-but-lagging slot — a stale answer beats none —
/// and finally to the primary.
fn read_slot(
    topology: &Topology,
    health: Option<&HealthTracker>,
    faults: Option<&FaultInjector>,
    u: NodeId,
) -> usize {
    let mut fallback = None;
    for s in topology.replica_slots(u) {
        if faults.is_some_and(|f| f.is_killed(s)) {
            continue;
        }
        match health {
            None => return s,
            Some(h) => {
                if h.is_readable(s) {
                    h.note_read(s);
                    return s;
                }
                if fallback.is_none() {
                    fallback = Some(s);
                }
            }
        }
    }
    fallback.unwrap_or_else(|| topology.server_of(u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn boot_two_shards() -> (Vec<Mutex<StoreServer>>, Arc<BufferPool>) {
        (
            vec![
                Mutex::new(StoreServer::new(0)),
                Mutex::new(StoreServer::new(0)),
            ],
            Arc::new(BufferPool::new()),
        )
    }

    #[test]
    fn batched_client_round_trips_and_recycles_buffers() {
        let (shards, pool) = boot_two_shards();
        let topology = Topology::hash(64, 2, 0);
        let (tx, rx) = unbounded::<ShardBatch>();
        std::thread::scope(|s| {
            let (shards, pool_ref) = (&shards, Arc::clone(&pool));
            s.spawn(move || worker_loop(shards, &pool_ref, &rx));
            let senders = Arc::new(vec![tx.clone(), tx.clone()]);
            let mut client =
                ShardClient::new(Transport::Workers(Arc::clone(&senders)), Arc::clone(&pool));
            let mut out = Vec::new();
            let targets: Vec<NodeId> = (0..32).collect();
            for round in 0..50u64 {
                let event = EventTuple::new(5, round, round + 1);
                let msgs = client.update(&topology, &targets, event.to_wire());
                assert_eq!(msgs as usize, topology.distinct_servers(targets.clone()));
                let msgs = client.query(&topology, &targets, 10, &mut out);
                assert_eq!(msgs as usize, topology.distinct_servers(targets.clone()));
                assert_eq!(out.len(), 10.min(round as usize + 1));
                assert!(out.windows(2).all(|w| w[0] > w[1]), "newest first");
                assert_eq!(out[0], event);
            }
            // Same answer as the model: every touched shard's answer,
            // merged by sorting their union.
            let mut flat = Vec::new();
            topology.group_by_server_with(
                &targets,
                &mut GroupScratch::default(),
                |shard, views| {
                    flat.extend(crate::textbook::query(&shards[shard].lock(), views, 10));
                },
            );
            assert_eq!(out, crate::textbook::newest_k(flat, 10));
            drop(tx);
        });
        let (bufs, vecs) = pool.pooled_counts();
        assert!(bufs > 0, "reply buffers must recirculate through the pool");
        assert!(vecs > 0, "view lists must recirculate through the pool");
    }

    #[test]
    fn batched_plane_counts_batches_and_sizes() {
        let (shards, pool) = boot_two_shards();
        let topology = Topology::hash(64, 2, 0);
        let mut client = ShardClient::new(Transport::Direct(Arc::new(shards)), Arc::clone(&pool));
        let targets: Vec<NodeId> = (0..16).collect();
        let event = EventTuple::new(5, 1, 1);
        let mut out = Vec::new();
        let msgs = client.update(&topology, &targets, event.to_wire());
        let msgs2 = client.query(&topology, &targets, 10, &mut out);
        let shards = match &client.transport {
            Transport::Direct(s) => Arc::clone(s),
            _ => unreachable!(),
        };
        let mut total = ShardStats::default();
        for sh in shards.iter() {
            total.merge(&sh.lock().stats());
        }
        assert_eq!(total.batches, msgs + msgs2);
        assert_eq!(total.batch_ops, 2 * targets.len() as u64);
        assert!(total.avg_batch_ops() > 0.0);
    }
}
