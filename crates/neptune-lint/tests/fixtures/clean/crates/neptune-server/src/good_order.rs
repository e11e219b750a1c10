//! Fixture: the canonical view → gate → shard sequence.

pub fn ordered(shared: &Shared) {
    let gate = shared.lock_gate();
    let shard = shared.ham.lock_home(MAIN_CONTEXT);
    drop(gate);
    process(&shard);
    drop(shard);
}

pub fn lock_free_read_then_exclusive(shared: &Shared) {
    // Views sit below every lock: loading one first (or several — a view
    // is an Arc clone, not a lock) never conflicts with taking the gate.
    let view = shared.load_view();
    let again = shared.load_view();
    let gate = shared.lock_gate();
    let shard = shared.ham.lock_home(MAIN_CONTEXT);
    drop(shard);
    drop(gate);
    process(&view);
    drop(again);
}
