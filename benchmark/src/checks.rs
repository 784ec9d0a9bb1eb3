//! Correctness checks made from outside, through public APIs only, and the
//! cost model's prediction of what the server should have sent.

use piggyback_core::cost::schedule_cost;
use piggyback_core::scheduler::ScheduleOutcome;
use piggyback_core::validate::validate_bounded_staleness;
use piggyback_graph::NodeId;
use piggyback_serve::{ServeRuntime, ServingSchedule};
use piggyback_workload::Rates;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::load::{EdgeModel, Tally};
use crate::world::World;

/// Users probed for delivery after the timed phase of an untraced run
/// (each with every producer it follows, some 10 to 17 pairs a user).
pub const PROBE_USERS: usize = 400;

/// `count` users drawn from the seed.
pub fn probe_users(nodes: usize, seed: u64, count: usize) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x70_72_6f_62_65);
    (0..count)
        .map(|_| rng.random_range(0..nodes) as NodeId)
        .collect()
}

/// Theorem 1, behaviourally, on a quiesced server: for each user `u` and
/// each producer `p` it follows, `share(p)` then `query(u)` must return
/// `p`'s new event first. The edge may be pushed, pulled or piggybacked
/// through a hub; the probe neither knows nor asks. One attempt per pair.
pub fn probe_delivery(runtime: &ServeRuntime, model: &EdgeModel<'_>, users: &[NodeId]) -> Tally {
    let mut client = runtime.client();
    let mut tally = Tally::default();
    let mut newest_seen = 0;
    for &u in users {
        for p in model.followees(u) {
            tally.attempted += 1;
            client.share(p);
            let (feed, _) = client.query(u);
            match feed.first() {
                Some(e) if e.user == p && e.timestamp > newest_seen => {
                    newest_seen = e.timestamp;
                }
                other => {
                    newest_seen = newest_seen.max(other.map_or(0, |e| e.timestamp));
                    tally.fail(format!(
                        "{u} follows {p} but its feed does not lead with {p}'s new event"
                    ));
                }
            }
        }
    }
    tally
}

/// What the §2.1 cost model, made placement-aware, predicts the server
/// sends per request: a share by `u` costs one message per distinct server
/// among its push targets and its own view, a query one per distinct server
/// among its pull sources and its own view; the trace draws shares and
/// queries in proportion to `rp` and `rc`.
pub fn predicted_msgs_per_op(snapshot: &ServingSchedule, rates: &Rates) -> f64 {
    let topology = snapshot.topology();
    let (mut weighted, mut total) = (0.0, 0.0);
    for u in 0..rates.len() as NodeId {
        let own = std::iter::once(u);
        let push = topology.distinct_servers(snapshot.push_targets(u).iter().copied().chain(own));
        let own = std::iter::once(u);
        let pull = topology.distinct_servers(snapshot.pull_sources(u).iter().copied().chain(own));
        weighted += rates.rp(u) * push as f64 + rates.rc(u) * pull as f64;
        total += rates.rp(u) + rates.rc(u);
    }
    weighted / total
}

/// The optimizer's output must be feasible (every edge pushed, pulled or
/// covered by an intact hub pair) and its reported cost must be the cost.
pub fn check_schedule(world: &World, outcome: &ScheduleOutcome) -> Tally {
    let mut tally = Tally {
        attempted: 2,
        ..Tally::default()
    };
    if let Err(v) = validate_bounded_staleness(&world.graph, &outcome.schedule) {
        tally.fail(format!("schedule violates bounded staleness: {v}"));
    }
    let recomputed = schedule_cost(&world.graph, &world.rates, &outcome.schedule);
    if (recomputed - outcome.stats.cost).abs() > 1e-9 * recomputed.abs() {
        tally.fail(format!(
            "scheduler reports cost {} but the schedule costs {recomputed}",
            outcome.stats.cost
        ));
    }
    tally
}
