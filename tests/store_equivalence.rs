//! Cross-backend equivalence: the same graph loaded from the v1 text
//! format (heap-backed `Vec` store) and from the binary `.egb` format
//! (read-only mmap store) must produce bit-identical census results for
//! every algorithm family, query shape, and thread count. This is the
//! acceptance gate for the out-of-core storage layer: the backend is a
//! pure storage decision, invisible to every algorithm.

use egocensus::census::{run, Algorithm, Census, CensusSpec, CountVector, ExecConfig, Job};
use egocensus::datagen;
use egocensus::graph::{io, Graph, GraphBuilder, Label, NodeId};
use egocensus::pattern::Pattern;
use egocensus::query::QueryEngine;

const ALL_ALGOS: [Algorithm; 7] = [
    Algorithm::NdBaseline,
    Algorithm::NdPivot,
    Algorithm::NdDiff,
    Algorithm::PtBaseline,
    Algorithm::PtRandom,
    Algorithm::PtOpt,
    Algorithm::Auto,
];

/// COUNTSP is rejected by ND-BAS and ND-DIFF.
const COUNTSP_ALGOS: [Algorithm; 5] = [
    Algorithm::NdPivot,
    Algorithm::PtBaseline,
    Algorithm::PtRandom,
    Algorithm::PtOpt,
    Algorithm::Auto,
];

/// Temp-dir scratch space, cleaned up on drop.
struct Scratch {
    dir: std::path::PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("ego-store-eq-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch { dir }
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// A labeled Barabási–Albert graph, the paper's synthetic workload.
fn ba_graph(nodes: usize) -> Graph {
    let mut rng = datagen::rng(0xE60);
    let g = datagen::barabasi_albert(nodes, 3, &mut rng);
    datagen::assign_random_labels(&g, 4, &mut rng)
}

/// Save `g` as text + binary, reload through the extension dispatcher,
/// and hand both copies (text-loaded, mmap-loaded) to `check`.
fn with_both_backends(g: &Graph, tag: &str, check: impl FnOnce(&Graph, &Graph)) {
    let s = Scratch::new(tag);
    let txt = s.path("g.txt");
    let egb = s.path("g.egb");
    io::save_path(g, &txt).unwrap();
    io::save_path(g, &egb).unwrap();
    let g_mem = io::load_path(&txt).unwrap();
    let g_map = io::load_path(&egb).unwrap();
    assert_eq!(g_mem.storage_kind(), "mem");
    assert_eq!(g_map.storage_kind(), "mmap");
    assert_eq!(g_mem.fingerprint(), g.fingerprint());
    assert_eq!(g_map.fingerprint(), g.fingerprint());
    assert!(g_map.verify_fingerprint());
    check(&g_mem, &g_map);
    // `check` borrows only for its body, so the mapping is unmapped
    // (drop) before Scratch unlinks the file.
}

fn census(g: &Graph, spec: &CensusSpec, algo: Algorithm, threads: usize) -> CountVector {
    let job = Job {
        exec: ExecConfig::with_threads(threads),
        ..Job::new(Census::Single(spec), algo)
    };
    run(g, &job).unwrap().counts.remove(0)
}

#[test]
fn countp_identical_across_backends_all_algorithms_and_threads() {
    let p = Pattern::parse("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
    with_both_backends(&ba_graph(300), "countp", |g_mem, g_map| {
        let spec = CensusSpec::single(&p, 1);
        for algo in ALL_ALGOS {
            for threads in 1..=4 {
                let mem = census(g_mem, &spec, algo, threads);
                let map = census(g_map, &spec, algo, threads);
                assert_eq!(mem, map, "{algo:?} threads={threads}");
            }
        }
    });
}

#[test]
fn countsp_identical_across_backends() {
    let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN one {?A;} }").unwrap();
    with_both_backends(&ba_graph(200), "countsp", |g_mem, g_map| {
        let spec = CensusSpec::single(&p, 1).with_subpattern("one");
        for algo in COUNTSP_ALGOS {
            for threads in 1..=4 {
                let mem = census(g_mem, &spec, algo, threads);
                let map = census(g_map, &spec, algo, threads);
                assert_eq!(mem, map, "{algo:?} threads={threads}");
            }
        }
    });
}

#[test]
fn directed_graph_identical_across_backends() {
    // Deterministic xorshift digraph: direction matters for the stored
    // out/in CSR sections, exercised here end to end.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let n = 120u32;
    let mut b = GraphBuilder::directed();
    for _ in 0..n {
        b.add_node(Label((next() % 3) as u16));
    }
    for i in 0..n {
        for _ in 0..3 {
            let j = (next() % n as u64) as u32;
            if i != j {
                b.add_edge(NodeId(i), NodeId(j));
            }
        }
    }
    let g = b.build();
    let p = Pattern::parse("PATTERN arc { ?A->?B; }").unwrap();
    with_both_backends(&g, "directed", |g_mem, g_map| {
        assert!(g_map.is_directed());
        for v in g_mem.node_ids() {
            assert_eq!(g_mem.out_neighbors(v), g_map.out_neighbors(v));
            assert_eq!(g_mem.in_neighbors(v), g_map.in_neighbors(v));
        }
        let spec = CensusSpec::single(&p, 1);
        for algo in [Algorithm::NdPivot, Algorithm::PtOpt, Algorithm::Auto] {
            for threads in 1..=4 {
                let mem = census(g_mem, &spec, algo, threads);
                let map = census(g_map, &spec, algo, threads);
                assert_eq!(mem, map, "{algo:?} threads={threads}");
            }
        }
    });
}

#[test]
fn query_engine_csv_identical_across_backends() {
    let g = ba_graph(150);
    let s = Scratch::new("query");
    let txt = s.path("g.txt");
    let egb = s.path("g.egb");
    io::save_path(&g, &txt).unwrap();
    io::save_path(&g, &egb).unwrap();
    let sql = "SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes ORDER BY 2 DESC, 1 LIMIT 25";
    let csv_for = |path: &std::path::Path| {
        let mut e = QueryEngine::open(path).unwrap();
        e.catalog_mut()
            .define_or_replace("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }")
            .unwrap();
        e.execute(sql).unwrap().to_csv()
    };
    let mem_csv = csv_for(&txt);
    let map_csv = csv_for(&egb);
    assert!(!mem_csv.is_empty());
    assert_eq!(mem_csv, map_csv, "CSV output differs between backends");
}
