//! Matcher-level kernel equivalence: the CN matcher's embedding lists —
//! order included — must be bit-identical whichever set-intersection
//! kernel is forced and however many threads split the candidate and
//! extraction phases. Any divergence between merge, gallop, bitset, and
//! adaptive dispatch, or between thread counts, shows up as a differing
//! embedding list here.

use ego_graph::setops::{self, Kernel};
use ego_graph::{Graph, GraphBuilder, Label, NodeId};
use ego_matcher::{cn, MatchStats, MatcherKind};
use ego_pattern::Pattern;
use proptest::prelude::*;
use std::sync::Mutex;

/// The kernel override is process-global; tests that force kernels must
/// not interleave.
static KERNEL_LOCK: Mutex<()> = Mutex::new(());

fn circulant(n: u32, offsets: &[u32], labels: u16) -> Graph {
    let mut b = GraphBuilder::undirected();
    for i in 0..n {
        b.add_node(Label((i % labels as u32) as u16));
    }
    for i in 0..n {
        for &d in offsets {
            b.add_edge(NodeId(i), NodeId((i + d) % n));
        }
    }
    b.build()
}

/// The CN matcher's embeddings on `threads` workers.
fn enumerate(g: &Graph, p: &Pattern, threads: usize) -> Vec<Vec<NodeId>> {
    cn::enumerate(g, p, &mut MatchStats::default(), threads)
}

/// No triangle: a path, and an edge next to isolated nodes.
fn triangle_free() -> Graph {
    let mut b = GraphBuilder::undirected();
    b.add_nodes(40, Label(0));
    for i in 0..30u32 {
        b.add_edge(NodeId(i), NodeId(i + 1));
    }
    b.add_edge(NodeId(35), NodeId(36));
    b.build()
}

fn patterns() -> Vec<Pattern> {
    [
        "PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }",
        "PATTERN wedge { ?A-?B; ?B-?C; ?A!-?C; }",
        "PATTERN ltri { ?A-?B; ?B-?C; ?A-?C; [?A.LABEL=0]; }",
        "PATTERN clq4 { ?A-?B; ?A-?C; ?A-?D; ?B-?C; ?B-?D; ?C-?D; }",
        "PATTERN n { ?A; }",
    ]
    .iter()
    .map(|t| Pattern::parse(t).unwrap())
    .collect()
}

#[test]
fn forced_kernels_and_thread_counts_are_bit_identical() {
    let _guard = KERNEL_LOCK.lock().unwrap();
    let graphs = [
        circulant(120, &[1, 2, 4, 9], 3),
        // Past the size at which candidate enumeration splits too.
        circulant(4200, &[1, 2], 3),
        triangle_free(),
        GraphBuilder::undirected().build(),
    ];
    for g in &graphs {
        for p in &patterns() {
            // Reference: merge kernel, sequential.
            setops::set_kernel(Kernel::Merge);
            let reference = ego_matcher::find_embeddings(g, p, MatcherKind::CandidateNeighbors);

            for kernel in [
                Kernel::Merge,
                Kernel::Gallop,
                Kernel::Bitset,
                Kernel::Adaptive,
            ] {
                setops::set_kernel(kernel);
                // 64 threads is more than most of these have roots.
                for threads in [1, 2, 4, 8, 64] {
                    assert_eq!(
                        enumerate(g, p, threads),
                        reference,
                        "n={} pattern={} kernel={} threads={threads}",
                        g.num_nodes(),
                        p.name(),
                        kernel.name()
                    );
                }
            }
        }
    }
    setops::set_kernel(Kernel::Adaptive);
}

/// `stats` without its one layout-dependent counter: `saved_allocs`
/// counts intersections whose output buffer was already warm, and each
/// worker warms its own buffers.
fn work(stats: &MatchStats) -> MatchStats {
    let mut s = stats.clone();
    s.setops.saved_allocs = 0;
    s
}

#[test]
fn scan_accounting_is_kernel_and_thread_invariant() {
    let _guard = KERNEL_LOCK.lock().unwrap();
    let p = Pattern::parse("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
    // Triangle-free (odd offsets) and triangle-rich circulants.
    for g in [circulant(90, &[1, 3, 5], 2), circulant(90, &[1, 2, 3], 2)] {
        // The sequential matcher's counters under `kernel`.
        let sequential = |kernel| {
            setops::set_kernel(kernel);
            let mut s = MatchStats::default();
            ego_matcher::find_embeddings_with_stats(
                &g,
                &p,
                MatcherKind::CandidateNeighbors,
                &mut s,
            );
            s
        };
        let base = sequential(Kernel::Merge);
        assert!(base.extension_candidates_scanned > 0);

        for kernel in [
            Kernel::Merge,
            Kernel::Gallop,
            Kernel::Bitset,
            Kernel::Adaptive,
        ] {
            let reference = sequential(kernel);
            // The kernel choice changes HOW an intersection runs, never
            // how much match work exists.
            assert_eq!(
                MatchStats {
                    setops: base.setops,
                    ..reference.clone()
                },
                base,
                "kernel={}",
                kernel.name()
            );
            assert!(
                reference.setops.total_calls() > 0,
                "kernel counters must tally"
            );
            // Splitting the work over threads changes neither; one
            // thread is the sequential run exactly.
            for threads in [1, 4, 64] {
                let mut s = MatchStats::default();
                cn::enumerate(&g, &p, &mut s, threads);
                let msg = format!("kernel={} threads={threads}", kernel.name());
                assert_eq!(work(&s), work(&reference), "{msg}");
                if threads == 1 {
                    assert_eq!(s, reference, "{msg}");
                }
            }
        }
    }
    setops::set_kernel(Kernel::Adaptive);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized graphs: CN match lists stay identical across kernels
    /// and thread counts (the adaptive dispatcher crosses its gallop and
    /// bitset thresholds at different points on different graphs, so this
    /// exercises mixed dispatch paths).
    #[test]
    fn random_graphs_bit_identical(
        n in 8u32..60,
        raw_edges in prop::collection::vec((any::<u32>(), any::<u32>()), 5..150),
        labels in 1u16..4,
    ) {
        let _guard = KERNEL_LOCK.lock().unwrap();
        let mut b = GraphBuilder::undirected();
        for i in 0..n {
            b.add_node(Label((i % labels as u32) as u16));
        }
        for (x, y) in raw_edges {
            let a = NodeId(x % n);
            let c = NodeId(y % n);
            if a != c {
                b.add_edge(a, c);
            }
        }
        let g = b.build();
        let p = Pattern::parse("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }").unwrap();

        setops::set_kernel(Kernel::Merge);
        let reference = ego_matcher::find_embeddings(&g, &p, MatcherKind::CandidateNeighbors);
        for kernel in [Kernel::Gallop, Kernel::Bitset, Kernel::Adaptive] {
            setops::set_kernel(kernel);
            for threads in [1, 3] {
                let got = enumerate(&g, &p, threads);
                prop_assert_eq!(&got, &reference, "kernel={} threads={}", kernel.name(), threads);
            }
        }
        setops::set_kernel(Kernel::Adaptive);
    }
}
