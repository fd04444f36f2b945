//! End-to-end tests for the `egocensus` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> PathBuf {
    // Cargo puts integration-test binaries under target/<profile>/deps;
    // the CLI lives one level up.
    let mut p = std::env::current_exe().expect("test binary path");
    p.pop();
    if p.ends_with("deps") {
        p.pop();
    }
    p.push(format!("egocensus{}", std::env::consts::EXE_SUFFIX));
    p
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("spawn egocensus");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tempfile(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("egocensus-cli-test-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

#[test]
fn generate_stats_query_roundtrip() {
    let path = tempfile("g1.txt");
    let (ok, out, err) = run(&[
        "generate", "--model", "ba", "--nodes", "500", "--param", "3", "--labels", "4", "--seed",
        "7", "-o", &path,
    ]);
    assert!(ok, "generate failed: {err}");
    assert!(out.contains("500 nodes"), "{out}");

    let (ok, out, _) = run(&["stats", &path]);
    assert!(ok);
    assert!(out.contains("nodes:       500"), "{out}");
    assert!(out.contains("labels:      4"));

    let (ok, out, err) = run(&[
        "query",
        &path,
        "--define",
        "PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }",
        "--csv",
        "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes ORDER BY 2 DESC LIMIT 5",
    ]);
    assert!(ok, "query failed: {err}");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 6, "header + 5 rows: {out}");
    assert!(lines[0].starts_with("ID,"));

    std::fs::remove_file(&path).ok();
}

#[test]
fn match_subcommand_counts_triangles() {
    let path = tempfile("g2.txt");
    run(&[
        "generate", "--model", "ws", "--nodes", "200", "--param", "3", "--seed", "5", "-o", &path,
    ]);
    let (ok, out, err) = run(&[
        "match",
        &path,
        "--pattern",
        "PATTERN t { ?A-?B; ?B-?C; ?A-?C; }",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("distinct matches"), "{out}");

    // CN and GQL agree on the reported count.
    let (_, out_gql, _) = run(&[
        "match",
        &path,
        "--pattern",
        "PATTERN t { ?A-?B; ?B-?C; ?A-?C; }",
        "--matcher",
        "gql",
    ]);
    let count = |s: &str| {
        s.split_whitespace()
            .next()
            .and_then(|w| w.parse::<u64>().ok())
            .expect("count prefix")
    };
    assert_eq!(count(&out), count(&out_gql));
    std::fs::remove_file(&path).ok();
}

#[test]
fn match_listing_is_the_same_at_every_thread_count() {
    let path = tempfile("g5.txt");
    run(&[
        "generate", "--model", "ba", "--nodes", "300", "--param", "3", "--seed", "7", "-o", &path,
    ]);
    let wedge = "PATTERN w { ?A-?B; ?B-?C; ?A!-?C; }";
    // Everything after the first line, which carries the wall time.
    let listing = |threads: &str, stats: bool| {
        let mut args = vec!["match", &path, "--pattern", wedge, "--threads", threads];
        if stats {
            args.push("--stats");
        }
        let (ok, out, err) = run(&args);
        assert!(ok, "{err}");
        out.lines().skip(1).collect::<Vec<_>>().join("\n")
    };
    for stats in [false, true] {
        let reference = listing("1", stats);
        assert!(reference.contains("more"), "{reference}");
        assert_eq!(listing("4", stats), reference, "--stats: {stats}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn topk_subcommand() {
    let path = tempfile("g3.txt");
    run(&[
        "generate", "--model", "ba", "--nodes", "300", "--param", "4", "--seed", "3", "-o", &path,
    ]);
    let (ok, out, err) = run(&[
        "topk",
        &path,
        "--pattern",
        "PATTERN t { ?A-?B; ?B-?C; ?A-?C; }",
        "--k",
        "1",
        "--top",
        "3",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("top 3"), "{out}");
    assert!(out.contains("exactly evaluated"), "{out}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn edge_list_files_auto_detected() {
    let path = tempfile("snap.txt");
    std::fs::write(&path, "# comment\n0 1\n1 2\n2 0\n").unwrap();
    let (ok, out, err) = run(&["stats", &path]);
    assert!(ok, "{err}");
    assert!(out.contains("nodes:       3"), "{out}");
    assert!(out.contains("triangles:   1"), "{out}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn errors_are_reported() {
    let (ok, _, err) = run(&["stats", "/nonexistent/graph.txt"]);
    assert!(!ok);
    assert!(err.contains("error:"), "{err}");

    let (ok, _, err) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown subcommand"), "{err}");

    let path = tempfile("g4.txt");
    run(&["generate", "--nodes", "50", "--param", "2", "-o", &path]);
    let (ok, _, err) = run(&["query", &path, "SELECT BROKEN"]);
    assert!(!ok);
    assert!(err.contains("error:"), "{err}");
    std::fs::remove_file(&path).ok();
}
