//! The check shared by the golden-snapshot integration tests.

use std::fmt::Write as _;

/// Compare the rendered snapshot `current` line by line against the
/// committed golden file at `path`, panicking with a readable diff when they
/// differ.  With `SOAP_UPDATE_GOLDEN` set, rewrite the file instead.  `test`
/// names the integration test that regenerates it.
pub fn check_golden(path: &str, current: &str, test: &str) {
    let regenerate = format!("SOAP_UPDATE_GOLDEN=1 cargo test --test {test}");
    if std::env::var("SOAP_UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, current).expect("write golden file");
        eprintln!("updated {path} — review the diff before committing");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}\ngenerate it with: {regenerate}"));
    if golden == current {
        return;
    }
    // Readable diff: every differing line with its line number, plus
    // insertions/deletions at the tail.
    let mut diff = String::new();
    let mut differing = 0usize;
    let g: Vec<&str> = golden.lines().collect();
    let c: Vec<&str> = current.lines().collect();
    for i in 0..g.len().max(c.len()) {
        let old = g.get(i).copied();
        let new = c.get(i).copied();
        if old != new {
            differing += 1;
            if differing <= 40 {
                let _ = writeln!(diff, "line {:>4}: - {}", i + 1, old.unwrap_or("<missing>"));
                let _ = writeln!(diff, "           + {}", new.unwrap_or("<missing>"));
            }
        }
    }
    if differing > 40 {
        let _ = writeln!(diff, "… and {} more differing lines", differing - 40);
    }
    panic!(
        "snapshot drifted from {path} ({differing} differing lines):\n{diff}\n\
         If the change is intentional, regenerate with\n\
         {regenerate}\n\
         and review the golden diff line by line."
    );
}
