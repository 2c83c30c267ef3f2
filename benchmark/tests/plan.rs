//! Plans depend on their seed and on nothing else.

use botwall_benchmark::plan::{Plan, Workload, TRACKER_CAP};

#[test]
fn same_seed_same_plan_different_seed_different_plan() {
    for workload in Workload::ALL {
        let a = Plan::build(workload, 7, false);
        let b = Plan::build(workload, 7, false);
        let c = Plan::build(workload, 8, false);
        assert_eq!(a.hash(), b.hash(), "{}: same seed", workload.name());
        assert_eq!(a.measured, b.measured);
        assert_ne!(a.hash(), c.hash(), "{}: another seed", workload.name());
    }
}

#[test]
fn the_seed_moves_who_fetches_what_not_how_much() {
    for workload in Workload::ALL {
        let a = Plan::build(workload, 1, false);
        let b = Plan::build(workload, 2, false);
        assert_eq!(a.measured.len(), b.measured.len(), "{}", workload.name());
        assert_eq!(
            a.measured.len() % workload.block_ops(),
            0,
            "whole blocks only"
        );
        // Fixed work is what makes bytes and memory comparable across seeds.
        if workload != Workload::BrowseMix {
            assert_eq!(a.warmup.len(), b.warmup.len(), "{}", workload.name());
        }
    }
}

#[test]
fn every_workload_holds_two_thousand_sessions() {
    for workload in Workload::ALL {
        let plan = Plan::build(workload, 3, false);
        assert!(
            plan.sessions() >= 2000,
            "{}: {} sessions",
            workload.name(),
            plan.sessions()
        );
    }
}

#[test]
fn first_contact_sits_at_the_cap_and_one_key_in_sixteen_is_new() {
    let plan = Plan::build(Workload::FirstContact, 3, false);
    // The warm-up fills the tracker exactly; nothing measured frees a slot.
    assert_eq!(plan.warmed_sessions(), TRACKER_CAP);
    assert_eq!(plan.sessions(), TRACKER_CAP);
    let warmed = plan.warmup.iter().map(|op| op.agent).max().expect("ops");
    for block in plan.measured.chunks(Workload::FirstContact.block_ops()) {
        let strangers: Vec<u32> = block
            .iter()
            .map(|op| op.agent)
            .filter(|&a| a > warmed)
            .collect();
        assert_eq!(strangers.len() * 16, block.len(), "one in sixteen");
        // Two connects per block on either leg, so blocks are alike.
        assert_eq!(block.iter().filter(|op| op.reconnect).count(), 2);
    }
    // Every never-seen key is seen once.
    let mut strangers: Vec<u32> = plan
        .measured
        .iter()
        .map(|op| op.agent)
        .filter(|&a| a > warmed)
        .collect();
    let all = strangers.len();
    strangers.dedup();
    assert_eq!(strangers.len(), all);
}
