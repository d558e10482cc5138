//! Checkpoint / restart tests: state survives a full runtime teardown and
//! restore, including onto a different PE count.

use charm_core::prelude::*;
use charm_sim::MachineModel;

struct Counter {
    count: i64,
    history: Vec<i64>,
}
wire_struct! { Counter { count, history } }

enum CounterMsg {
    Add(i64),
    Sum { done: Future<RedData> },
    WherePe { done: Future<RedData> },
}
wire_enum! { CounterMsg { Add(a), Sum { done }, WherePe { done } } }

impl Chare for Counter {
    type Msg = CounterMsg;
    type Init = ();
    fn create(_: (), _: &mut Ctx) -> Self {
        Counter {
            count: 0,
            history: Vec::new(),
        }
    }
    fn receive(&mut self, msg: CounterMsg, ctx: &mut Ctx) {
        match msg {
            CounterMsg::Add(v) => {
                self.count += v;
                self.history.push(v);
            }
            CounterMsg::Sum { done } => ctx.contribute(
                RedData::I64(self.count),
                Reducer::Sum,
                RedTarget::Future(done.id()),
            ),
            CounterMsg::WherePe { done } => ctx.contribute(
                RedData::VecI64(vec![ctx.my_pe() as i64]),
                Reducer::Max,
                RedTarget::Future(done.id()),
            ),
        }
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("charmrs-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn rt(npes: usize) -> Runtime {
    Runtime::new(npes)
        .backend(Backend::Sim(MachineModel::local(npes)))
        .register_migratable::<Counter>()
}

fn checkpointed_run(dir: std::path::PathBuf, npes: usize) -> i64 {
    let out = std::sync::Arc::new(std::sync::Mutex::new(0i64));
    let out2 = std::sync::Arc::clone(&out);
    rt(npes).run(move |co| {
        let arr = co.ctx().create_array::<Counter>(&[10], ());
        for i in 0..10 {
            arr.elem(i).send(co.ctx(), CounterMsg::Add(i as i64 + 1));
            arr.elem(i).send(co.ctx(), CounterMsg::Add(100));
        }
        // Quiesce, then checkpoint (the documented protocol).
        let q = co.ctx().create_future::<()>();
        co.ctx().start_quiescence(&q);
        co.get(&q);
        let done = co.ctx().create_future::<i64>();
        co.ctx()
            .checkpoint(dir.to_str().unwrap().to_string(), &done);
        let saved = co.get(&done);
        *out2.lock().unwrap() = saved;
        co.ctx().exit();
    });
    let v = *out.lock().unwrap();
    v
}

#[test]
fn checkpoint_then_restore_same_pe_count() {
    let dir = tmpdir("same");
    let saved = checkpointed_run(dir.clone(), 3);
    assert_eq!(saved, 10, "all array members saved");

    // Fresh runtime, restored from disk; the entry closure re-queries.
    let dir2 = dir.clone();
    rt(3).run_restored(dir, move |co| {
        let _ = &dir2;
        // The proxy to the restored collection: rebuild it from the known
        // creation order (first collection created by PE 0).
        let arr =
            charm_core::Proxy::<Counter>::restored(charm_core::CollectionId { creator: 0, seq: 0 });
        let done = co.ctx().create_future::<RedData>();
        arr.send(co.ctx(), CounterMsg::Sum { done });
        let total = co.get(&done).as_i64();
        // Each member i holds (i+1) + 100 → Σ = 55 + 1000.
        assert_eq!(total, 1055, "state must survive the restore");
        co.ctx().exit();
    });
    let _ = std::fs::remove_dir_all(tmpdir("same"));
}

#[test]
fn restore_onto_more_pes_redistributes() {
    let dir = tmpdir("grow");
    checkpointed_run(dir.clone(), 2);

    rt(5).run_restored(dir.clone(), move |co| {
        let arr =
            charm_core::Proxy::<Counter>::restored(charm_core::CollectionId { creator: 0, seq: 0 });
        // Members must now be spread beyond the original 2 PEs.
        let spread = co.ctx().create_future::<RedData>();
        arr.send(co.ctx(), CounterMsg::WherePe { done: spread });
        let max_pe = co.get(&spread).as_vec_i64()[0];
        assert!(
            max_pe >= 2,
            "restored members should use the new PEs: {max_pe}"
        );
        // And the state is intact.
        let done = co.ctx().create_future::<RedData>();
        arr.send(co.ctx(), CounterMsg::Sum { done });
        assert_eq!(co.get(&done).as_i64(), 1055);
        co.ctx().exit();
    });
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn restored_collection_keeps_working() {
    let dir = tmpdir("resume");
    checkpointed_run(dir.clone(), 2);

    rt(4).run_restored(dir.clone(), move |co| {
        let arr =
            charm_core::Proxy::<Counter>::restored(charm_core::CollectionId { creator: 0, seq: 0 });
        // Keep computing after the restore: sends, reductions, new
        // collections must all work.
        arr.send(co.ctx(), CounterMsg::Add(1)); // broadcast: +1 to all 10
        let done = co.ctx().create_future::<RedData>();
        arr.send(co.ctx(), CounterMsg::Sum { done });
        assert_eq!(co.get(&done).as_i64(), 1065);
        // New collections allocate fresh ids that must not collide.
        let fresh = co.ctx().create_array::<Counter>(&[4], ());
        let done = co.ctx().create_future::<RedData>();
        fresh.send(co.ctx(), CounterMsg::Sum { done });
        assert_eq!(co.get(&done).as_i64(), 0);
        co.ctx().exit();
    });
    let _ = std::fs::remove_dir_all(dir);
}
