//! Fixture: lock-hierarchy violations (DESIGN.md §9).

pub fn inverted(shared: &Shared) {
    let shard = shared.ham.lock_home(MAIN_CONTEXT);
    let gate = shared.lock_gate();
    drop(gate);
    drop(shard);
}

pub fn blocking_under_shard(shared: &Shared) {
    let shard = shared.ham.lock_home(MAIN_CONTEXT);
    std::thread::sleep(core::time::Duration::from_millis(1));
    drop(shard);
}

pub fn reentrant(shared: &Shared) {
    let first = shared.ham.lock_home(MAIN_CONTEXT);
    let second = shared.ham.lock_home(MAIN_CONTEXT);
    drop(second);
    drop(first);
}

pub fn view_under_gate(shared: &Shared) {
    let gate = shared.lock_gate();
    let view = shared.load_view();
    drop(view);
    drop(gate);
}

pub fn view_under_shard(shared: &Shared) {
    let shard = shared.ham.lock_home(MAIN_CONTEXT);
    let view = shared.published_view.load();
    drop(view);
    drop(shard);
}
