//! Scripted shell sessions: each test drives the interpreter the way a
//! user at the REPL would and asserts on the rendered output.

use std::sync::{Mutex, MutexGuard, PoisonError};

use neptune_shell::{Shell, ShellError};

/// Every command records a trace in the process-global flight recorder,
/// and `obs off` flips the process-global kill-switch, so the tests in
/// this file take turns: otherwise a sibling's commands can evict the
/// trace one test just listed before it looks that trace up, or switch
/// tracing off under it.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fresh(name: &str) -> Shell {
    let dir = std::env::temp_dir().join(format!("neptune-shell-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Shell::open(dir).unwrap()
}

/// Run commands, returning each output; panics on unexpected errors.
fn run(shell: &mut Shell, commands: &[&str]) -> Vec<String> {
    commands
        .iter()
        .map(|c| {
            shell
                .execute(c)
                .unwrap_or_else(|e| panic!("command '{c}' failed: {e}"))
        })
        .collect()
}

#[test]
fn create_edit_and_browse() {
    let _serial = serial();
    let mut shell = fresh("basic");
    let out = run(
        &mut shell,
        &[
            "new",
            "edit The Hypertext Abstract Machine.",
            "set icon Overview",
            "cat",
            "info",
            "graph",
            "history",
        ],
    );
    assert!(out[0].contains("created archive node 1"));
    assert!(out[3].contains("The Hypertext Abstract Machine."));
    assert!(out[4].contains("1 live nodes"));
    assert!(out[5].contains("[Overview]"));
    assert!(out[6].contains("modifyNode"));
}

#[test]
fn linking_following_and_trails() {
    let _serial = serial();
    let mut shell = fresh("trails");
    run(
        &mut shell,
        &[
            "new",
            "edit page one",
            "set icon One",
            "new",
            "edit page two",
            "set icon Two",
        ],
    );
    // Link node 1 -> node 2 wait: current node is 2; goto 1 first.
    let out = run(&mut shell, &["goto 1", "link 2 3", "view"]);
    assert!(out[1].contains("node 1 @3 -> node 2"));
    assert!(out[2].contains("links:"));
    let out = run(&mut shell, &["follow 0", "cat"]);
    assert!(out[1].contains("page two"));
    let out = run(&mut shell, &["trail", "back", "cat"]);
    assert!(out[0].contains("via link"));
    assert!(out[2].contains("page one"));
}

#[test]
fn queries_and_attribute_browser() {
    let _serial = serial();
    let mut shell = fresh("query");
    run(
        &mut shell,
        &[
            "new",
            "set document spec",
            "new",
            "set document spec",
            "new",
            "set document design",
        ],
    );
    let out = run(&mut shell, &["query document = spec", "attrs"]);
    assert!(out[0].contains("2 node(s)"));
    assert!(out[1].contains("document"));
    assert!(out[1].contains("design"));
}

#[test]
fn transactions_roll_back_from_the_shell() {
    let _serial = serial();
    let mut shell = fresh("txn");
    run(&mut shell, &["new", "edit keep me"]);
    let out = run(
        &mut shell,
        &["begin", "new", "edit lose me", "abort", "info"],
    );
    assert!(out[4].contains("1 live nodes"), "{}", out[4]);
}

#[test]
fn contexts_from_the_shell() {
    let _serial = serial();
    let mut shell = fresh("ctx");
    run(&mut shell, &["new", "edit mainline text", "set icon Doc"]);
    let forked = run(&mut shell, &["fork"]);
    assert!(forked[0].contains("forked ctx1"));
    let out = run(
        &mut shell,
        &[
            "switch ctx1",
            "goto 1",
            "edit private world edit",
            "switch ctx0",
            "goto 1",
            "cat",
        ],
    );
    assert!(!out[5].contains("private world edit"));
    let merged = run(&mut shell, &["merge 1"]);
    assert!(merged[0].contains("1 modified"), "{}", merged[0]);
    let out = run(&mut shell, &["goto 1", "cat"]);
    assert!(out[1].contains("private world edit"));
}

#[test]
fn diff_between_versions() {
    let _serial = serial();
    let mut shell = fresh("diff");
    run(&mut shell, &["new", "edit alpha"]);
    // Find the time of version 1 from history output.
    let hist = run(&mut shell, &["history"])[0].clone();
    run(&mut shell, &["edit beta"]);
    // Extract last @ time in the first history (the alpha version).
    let t1: u64 = hist
        .lines()
        .rev()
        .find(|l| l.contains('@'))
        .and_then(|l| l.split('@').nth(1))
        .and_then(|r| r.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("history shows times");
    let out = run(&mut shell, &[&format!("diff {t1} now")]);
    assert!(out[0].contains("beta"), "{}", out[0]);
    assert!(out[0].contains('+'), "{}", out[0]);
}

#[test]
fn relational_views_from_the_shell() {
    let _serial = serial();
    let mut shell = fresh("sql");
    run(
        &mut shell,
        &["new", "set document spec", "new", "set document design"],
    );
    let out = run(&mut shell, &["sql document"]);
    assert!(out[0].contains("| node"), "{}", out[0]);
    assert!(out[0].contains("spec"));
    assert!(out[0].contains("design"));
}

#[test]
fn errors_are_messages_not_crashes() {
    let _serial = serial();
    let mut shell = fresh("errors");
    assert!(matches!(shell.execute("bogus"), Err(ShellError::Usage(_))));
    assert!(matches!(
        shell.execute("cat"),
        Err(ShellError::NoCurrentNode)
    ));
    assert!(matches!(shell.execute("goto 999"), Err(ShellError::Ham(_))));
    assert!(matches!(shell.execute("quit"), Err(ShellError::Quit)));
    // Comments and blank lines are no-ops.
    assert_eq!(shell.execute("# a comment").unwrap(), "");
    assert_eq!(shell.execute("   ").unwrap(), "");
}

#[test]
fn reopen_preserves_session_work() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("neptune-shell-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut shell = Shell::open(&dir).unwrap();
        run(&mut shell, &["new", "edit persistent line", "checkpoint"]);
    }
    let mut shell = Shell::open(&dir).unwrap();
    let out = run(&mut shell, &["goto 1", "cat"]);
    assert!(out[1].contains("persistent line"));
}

#[test]
fn read_command_times_batched_reads() {
    let _serial = serial();
    let mut shell = fresh("read");
    let out = run(
        &mut shell,
        &["new", "edit some contents worth reading", "read --batch 8"],
    );
    assert!(out[2].contains("x8:"), "{}", out[2]);
    assert!(out[2].contains("reads/sec"), "{}", out[2]);
    assert!(out[2].contains("version cache:"), "{}", out[2]);
    // Bad flag values are usage errors, not panics.
    assert!(matches!(
        shell.execute("read --batch zero"),
        Err(ShellError::Usage(_))
    ));
    // stats surfaces the wire-traffic counters (zero in-process) — unless a
    // parallel test flipped the global kill-switch, in which case it says so.
    let stats = shell.execute("stats").unwrap();
    assert!(
        stats.contains("bytes in") || stats.contains("disabled"),
        "{stats}"
    );
}

#[test]
fn trace_and_obs_commands_drive_the_flight_recorder() {
    let _serial = serial();
    let mut shell = fresh("trace");
    run(&mut shell, &["new", "edit traced line", "cat"]);
    // Each completed command line above is one trace in the recorder.
    let listing = shell.execute("trace").unwrap();
    assert!(listing.contains("shell.command"), "{listing}");
    // Pull an id back out of the listing and render its span tree. Take
    // the newest: once the recent ring is full, the listing command's own
    // trace, recorded as it returns, evicts the oldest one listed.
    let id = listing
        .split_whitespace()
        .rfind(|w| w.len() == 17 && w.starts_with('t'))
        .expect("listing shows trace ids")
        .to_string();
    let tree = shell.execute(&format!("trace {id}")).unwrap();
    assert!(tree.contains("shell.command"), "{tree}");
    let json = shell.execute(&format!("trace --json {id}")).unwrap();
    assert!(json.trim_start().starts_with('{'), "{json}");
    let all_json = shell.execute("trace --json").unwrap();
    assert!(all_json.trim_start().starts_with('['), "{all_json}");
    // Unknown ids are messages, malformed ids are usage errors.
    assert!(shell
        .execute("trace t00000000000000ff")
        .unwrap()
        .contains("not in the flight recorder"));
    assert!(matches!(
        shell.execute("trace nonsense"),
        Err(ShellError::Usage(_))
    ));
    // Runtime obs controls: threshold and kill-switch round-trip.
    assert!(shell
        .execute("obs set slow-op-ms 250")
        .unwrap()
        .contains("250ms"));
    assert!(shell
        .execute("obs set slow-op-ms off")
        .unwrap()
        .contains("disabled"));
    assert!(shell.execute("obs off").unwrap().contains("disabled"));
    assert!(shell.execute("obs on").unwrap().contains("enabled"));
    assert!(matches!(
        shell.execute("obs bogus"),
        Err(ShellError::Usage(_))
    ));
}
