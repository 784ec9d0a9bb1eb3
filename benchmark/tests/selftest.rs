//! The delivery probe must catch a schedule that leaves an edge unserved,
//! and must pass the same world when nothing is broken.

use pigbench::checks::probe_delivery;
use pigbench::load::EdgeModel;
use pigbench::spec::{Family, Spec};
use pigbench::world::{boot, scheduler, World};
use piggyback_graph::NodeId;

const SMALL: Spec = Spec {
    name: "selftest",
    why: "small enough for a debug build",
    family: Family::Flickr,
    nodes: 400,
    read_write: 5.0,
    scheduler: "push-all",
    clients: 1,
    churn_ratio: 0.0,
    reopt: None,
};

#[test]
fn probe_reports_the_one_broken_edge() {
    let world = World::build(&SMALL);
    // Push-all serves every edge by a push and nothing else, so an edge
    // taken out of the push set has no hub to ride through.
    let mut schedule = scheduler(SMALL.scheduler)
        .schedule(&world.instance())
        .schedule;
    let users: Vec<NodeId> = (0..world.graph.node_count() as NodeId).collect();
    let model = EdgeModel::new(&world.graph);

    let (intact, _) = boot(&world, &schedule, None, 7);
    let healthy = probe_delivery(&intact, &model, &users);
    assert_eq!(healthy.attempted, world.graph.edge_count() as u64);
    assert_eq!(healthy.failed, 0, "{:?}", healthy.first_failure);
    assert!(intact.shutdown().churn.zero_violations());

    let (edge, producer, consumer) = world
        .graph
        .edges()
        .nth(world.graph.edge_count() / 2)
        .unwrap();
    assert!(schedule.is_push(edge));
    schedule.unassign(edge);
    let (broken, _) = boot(&world, &schedule, None, 7);
    let caught = probe_delivery(&broken, &model, &users);
    assert_eq!(caught.failed, 1, "exactly the flipped edge fails");
    let why = caught.first_failure.unwrap();
    assert!(
        why.contains(&format!("{consumer} follows {producer} ")),
        "{why}"
    );
    // The server's own structural check agrees, from the inside.
    assert!(!broken.shutdown().churn.zero_violations());
}
