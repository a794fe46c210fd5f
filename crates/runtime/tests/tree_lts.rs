//! The tree executor steps the process LTS: a certified endpoint's sends
//! carry the sorts its local type declares, and its fuel runs out on the
//! same action as the compiled programs' (slab and batch).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use zooid_dsl::builder::{self, BranchAlt};
use zooid_dsl::Protocol;
use zooid_mpst::global::GlobalType;
use zooid_mpst::{Role, Sort};
use zooid_proc::semantics::{no_communication, ADMIN_FUEL};
use zooid_proc::{Expr, Externals, Proc, Value};
use zooid_runtime::cbatch::SessionBatch;
use zooid_runtime::error::RuntimeError;
use zooid_runtime::exec::{EndpointStatus, ExecOptions};
use zooid_runtime::SessionHarness;

mod common;
use common::{make_layout, run_reference};

fn r(name: &str) -> Role {
    Role::new(name)
}

#[test]
fn a_certified_relay_of_a_sum_records_its_declared_sort() {
    // a reads `inl 3 : nat + bool` and sends it to b, b forwards it to c.
    // The payload's own sort would be `nat + unit`, which no monitor of
    // this protocol accepts.
    let sum = Sort::sum(Sort::Nat, Sort::Bool);
    let hop = |from: &str, to: &str, cont| GlobalType::msg1(r(from), r(to), "l", sum.clone(), cont);
    let protocol = Protocol::new("relay", hop("a", "b", hop("b", "c", GlobalType::End))).unwrap();
    let mut ext = Externals::new();
    ext.register_read("src", sum.clone(), || Value::inl(Value::Nat(3)));

    let forward = |to: &str| {
        builder::send(r(to), "l", sum.clone(), Expr::var("x"), builder::finish()).unwrap()
    };
    let a = builder::read("src", "x", forward("b"));
    let b = builder::branch(r("a"), vec![BranchAlt::new("l", sum.clone(), "x", forward("c"))]);
    let c = builder::recv1(r("b"), "l", sum.clone(), "y", builder::finish());
    let mut harness = SessionHarness::new(protocol.clone());
    for (role, process) in [("a", a), ("b", b.unwrap()), ("c", c.unwrap())] {
        let certified = protocol.implement(&r(role), process, &ext).unwrap();
        harness.add_endpoint(certified, ext.clone()).unwrap();
    }

    let report = harness.run().unwrap();
    assert!(report.all_finished_and_compliant(), "{:?}", report.violations);
    let actions = report.endpoints.values().flat_map(|e| &e.actions);
    let sends: Vec<_> = actions.filter(|a| a.is_send).collect();
    assert_eq!(sends.len(), 2);
    for send in sends {
        assert_eq!((&send.sort, &send.value), (&sum, &Value::inl(Value::Nat(3))));
    }
}

#[test]
fn a_write_that_jumps_back_is_refused_alike_on_tree_slab_and_batch() {
    // `loop { write tick 0; jump 0 }`: every write takes a back-edge, and
    // the one that would take one past the bound does not run.
    let (p, q) = (r("p"), r("q"));
    let g = GlobalType::msg1(p.clone(), q.clone(), "l", Sort::Nat, GlobalType::End);
    let silent = Proc::loop_(Proc::write("tick", Expr::lit(0u64), Proc::Jump(0)));
    let procs = vec![
        (p.clone(), silent),
        (q.clone(), Proc::recv1(p.clone(), "l", Sort::Nat, "x", Proc::Finish)),
    ];
    let ticks = Arc::new(AtomicU64::new(0));
    let mut externals = Externals::new();
    let counter = Arc::clone(&ticks);
    externals.register_write("tick", Sort::Nat, move |_| {
        counter.fetch_add(1, Ordering::Relaxed);
    });
    let both = Some((&externals, &externals));
    let options = ExecOptions::default();
    let error = RuntimeError::Process(no_communication()).to_string();
    let stuck = EndpointStatus::Failed { error };

    let slab = run_reference(&g, &procs, &options, true, both);
    assert_eq!(ticks.swap(0, Ordering::Relaxed), ADMIN_FUEL as u64);
    let tree = run_reference(&g, &procs, &options, false, both);
    assert_eq!(ticks.swap(0, Ordering::Relaxed), ADMIN_FUEL as u64);
    assert_eq!(tree, slab);
    assert_eq!(tree.statuses[&p], stuck);

    let layout = make_layout(&g, &procs, &externals).expect("one program per role");
    let mut batch = SessionBatch::new(layout, options, 1);
    assert!(batch.admit_with_externals(0, vec![externals.clone(); procs.len()]));
    let out = batch.run_quantum(usize::MAX);
    assert_eq!(ticks.load(Ordering::Relaxed), ADMIN_FUEL as u64);
    let [session] = &out.finished[..] else { panic!("the batch closes the session itself") };
    let status = session.endpoints.iter().find(|e| e.role == p).map(|e| &e.status);
    assert_eq!(status, Some(&stuck));
}
